"""Keyed random number streams: SFC64 generators seeded from a SHA-256 digest.

Every stream's state is derived by hashing a master seed together with an
arbitrary scope (block index, stream id, ...), so a stream is a pure
function of (master_seed, scope).  Streams with distinct scopes are
statistically independent, and a stream's output never depends on how many
other streams exist or on any execution schedule.  That property is what
makes Monte Carlo results reproducible bit for bit regardless of chunking or
thread count; it needs no counter-based generator, so each stream is numpy's
SFC64 (Doty-Humphrey's small fast chaotic generator), which draws doubles
about twice as fast as Philox and faster than PCG64DXSM.

:meth:`RngStream.reseed` defines every state: SFC64's words a and b are the
digest's bytes 0-15 and word c its bytes 24-31, with the counter at 1, and
the first 12 outputs are discarded, which is SFC64's own seeding.  Bytes
16-23 are :func:`derive_seed`'s alone.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import InvalidParameter

__all__ = ["derive_seed", "RngStream", "check_seed"]

_MASK64 = (1 << 64) - 1
_SEED = struct.Struct("<Q")
_DIGEST_WORDS = struct.Struct("<4Q")

# random() yields multiples of 2**-53; only the exact-zero draw falls below
# this floor.  Quantile transforms require u > 0.
_U_FLOOR = 2.0 ** -54


def _encode(scope) -> bytes:
    return b"".join([str(part).encode("utf-8") + b"\x00" for part in scope])


def _scope_digest(master_seed: int, scope: tuple) -> bytes:
    return hashlib.sha256(_SEED.pack(master_seed & _MASK64) + _encode(scope)).digest()


def check_seed(master_seed: int) -> int:
    """``master_seed``, if 0 <= it < 2**64: streams pack a seed mod 2**64."""
    if not 0 <= master_seed <= _MASK64:
        raise InvalidParameter(f"a master seed must be in 0 <= seed < 2**64, got {master_seed}")
    return master_seed


def derive_seed(master_seed: int, *scope) -> int:
    """64-bit integer seed for (master_seed, scope), e.g. per sweep point."""
    digest = _scope_digest(master_seed, scope)
    return _SEED.unpack(digest[16:24])[0]


class RngStream:
    """Single-owner random stream; mutate only from one task at a time.

    ``generator`` is the numpy Generator over this stream's SFC64 state, for
    samplers numpy already provides; :meth:`reseed` rewinds it too.
    """

    __slots__ = ("_bitgen", "generator")

    def __init__(self, master_seed: int, *scope):
        self._bitgen = np.random.SFC64(0)  # reseed replaces this state
        self.generator = np.random.Generator(self._bitgen)
        self.reseed(master_seed, *scope)

    def reseed(self, master_seed: int, *scope) -> "RngStream":
        """Set this stream to (master_seed, scope)'s state, the one a fresh
        construction has; cheaper than building a new generator."""
        a, b, _, c = _DIGEST_WORDS.unpack(_scope_digest(master_seed, scope))
        # the setter takes a list of ints faster than an array
        self._bitgen.state = {"bit_generator": "SFC64", "state": {"state": [a, b, c, 1]},
                              "has_uint32": 0, "uinteger": 0}
        self._bitgen.random_raw(12)
        return self

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on (0, 1), floored away from exact zero."""
        u = self.generator.random(n)
        return np.maximum(u, _U_FLOOR, out=u)
