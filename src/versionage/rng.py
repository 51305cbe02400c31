"""Counter-based random number streams with hash-derived keys.

Every stream is a Philox generator whose 128-bit key is derived by hashing a
master seed together with an arbitrary scope (iteration index, stream id, ...).
Streams with distinct scopes are statistically independent, and a stream's
output depends only on (master_seed, scope), never on how many other streams
exist or on any execution schedule.  That property is what makes Monte Carlo
results reproducible bit for bit regardless of chunking or thread count.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["derive_key", "derive_seed", "RngStream"]

_MASK64 = (1 << 64) - 1

# random() yields multiples of 2**-53; only the exact-zero draw falls below
# this floor.  Quantile transforms require u > 0.
_U_FLOOR = 2.0 ** -54


def _scope_digest(master_seed: int, scope: tuple) -> bytes:
    parts = b"".join([str(part).encode("utf-8") + b"\x00" for part in scope])
    return hashlib.sha256(struct.pack("<Q", master_seed & _MASK64) + parts).digest()


def derive_key(master_seed: int, *scope) -> np.ndarray:
    """128-bit Philox key for (master_seed, scope), as two uint64 words."""
    digest = _scope_digest(master_seed, scope)
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def derive_seed(master_seed: int, *scope) -> int:
    """64-bit integer seed for (master_seed, scope), e.g. per sweep point."""
    digest = _scope_digest(master_seed, scope)
    return struct.unpack("<Q", digest[16:24])[0]


class RngStream:
    """Single-owner random stream; mutate only from one task at a time.

    ``generator`` is the numpy Generator over this stream's Philox state, for
    samplers numpy already provides; :meth:`reseed` rewinds it too.
    """

    __slots__ = ("_bitgen", "generator", "key")

    def __init__(self, master_seed: int, *scope):
        self.key = derive_key(master_seed, *scope)
        self._bitgen = np.random.Philox(key=self.key)
        self.generator = np.random.Generator(self._bitgen)

    def reseed(self, master_seed: int, *scope) -> "RngStream":
        """Rewind this stream to the state a fresh (master_seed, scope)
        construction would have.  Cheaper than building a new generator;
        verified bit-identical to a fresh construction."""
        key = derive_key(master_seed, *scope)
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.key = key
        return self

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on (0, 1), floored away from exact zero."""
        u = self.generator.random(n)
        return np.maximum(u, _U_FLOOR, out=u)
