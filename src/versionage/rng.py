"""Counter-based random number streams with hash-derived keys.

Every stream is a Philox generator whose 128-bit key is derived by hashing a
master seed together with an arbitrary scope (iteration index, stream id, ...).
Streams with distinct scopes are statistically independent, and a stream's
output depends only on (master_seed, scope), never on how many other streams
exist or on any execution schedule.  That property is what makes Monte Carlo
results reproducible bit for bit regardless of chunking or thread count.

:func:`derive_key` defines every key.  :meth:`RngStream.reseed` computes the
same key, but keeps the hash of the scope's head (the master seed and the
first scope part) and, while the head repeats, hashes only the rest: a
replication's streams share their (seed, iteration) head.
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


def _encode(scope) -> bytes:
    return b"".join([str(part).encode("utf-8") + b"\x00" for part in scope])


def _scope_head(master_seed: int, scope: tuple) -> bytes:
    """The digest input's head: the packed master seed and the first scope part."""
    return struct.pack("<Q", master_seed & _MASK64) + _encode(scope[:1])


def _scope_digest(master_seed: int, scope: tuple) -> bytes:
    return hashlib.sha256(_scope_head(master_seed, scope) + _encode(scope[1:])).digest()


def derive_key(master_seed: int, *scope) -> np.ndarray:
    """128-bit Philox key for (master_seed, scope), as two uint64 words."""
    digest = _scope_digest(master_seed, scope)
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def derive_seed(master_seed: int, *scope) -> int:
    """64-bit integer seed for (master_seed, scope), e.g. per sweep point."""
    digest = _scope_digest(master_seed, scope)
    return struct.unpack("<Q", digest[16:24])[0]


#: a fresh Philox counter and output buffer; the state setter copies each word
_ZEROS = (0, 0, 0, 0)


class RngStream:
    """Single-owner random stream; mutate only from one task at a time.

    ``generator`` is the numpy Generator over this stream's Philox state, for
    samplers numpy already provides; :meth:`reseed` rewinds it too.
    """

    __slots__ = ("_bitgen", "generator", "_head", "_head_hash")

    def __init__(self, master_seed: int, *scope):
        self._bitgen = np.random.Philox(key=derive_key(master_seed, *scope))
        self.generator = np.random.Generator(self._bitgen)
        self._head = self._head_hash = None

    @property
    def key(self) -> np.ndarray:
        """This stream's 128-bit Philox key, as two uint64 words."""
        return self._bitgen.state["state"]["key"]

    def reseed(self, master_seed: int, *scope) -> "RngStream":
        """Rewind this stream to the state a fresh (master_seed, scope)
        construction would have.  Cheaper than building a new generator;
        verified bit-identical to a fresh construction.

        The key is :func:`derive_key`'s.  The hash of the last head is kept,
        keyed by its bytes (``1``, ``1.0`` and ``True`` are distinct heads),
        so a run of reseeds that share (master_seed, scope[0]) hashes only
        the rest of each scope."""
        head = _scope_head(master_seed, scope)
        if head != self._head:
            self._head, self._head_hash = head, hashlib.sha256(head)
        digest = self._head_hash.copy()
        digest.update(_encode(scope[1:]))
        # the key's two words in derive_key's (native) byte order
        key = struct.unpack_from("=2Q", digest.digest())
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": key},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self

    def __getstate__(self):
        # a hashlib object does not pickle; the head cache is rebuilt on use
        return self._bitgen, self.generator

    def __setstate__(self, state):
        self._bitgen, self.generator = state
        self._head = self._head_hash = None

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on (0, 1), floored away from exact zero."""
        u = self.generator.random(n)
        return np.maximum(u, _U_FLOOR, out=u)
