"""Keyed random number streams: SFC64 generators seeded from a SHA-256 digest.

Every stream's state is derived by hashing a master seed together with an
arbitrary scope (iteration index, stream id, ...), so a stream is a pure
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
16-23 are :func:`derive_seed`'s alone.  A replication reseeds one stream per
renewal stream, so each stream keeps the hash of its last head (the master
seed and the first scope part) and the bytes of each tail (the parts after
it), keyed by value and exact type: a replication's streams share their
(seed, iteration) head, and every replication has the same tails.  Only
int, bool and str parts are kept, as only their bytes are a function of
type and value; a float is encoded every time (0.0 == -0.0, yet their
str() differ).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["derive_seed", "RngStream"]

_MASK64 = (1 << 64) - 1
_SEED = struct.Struct("<Q")
_DIGEST_WORDS = struct.Struct("<4Q")

#: scope part types whose bytes are a function of exact type and value
_PLAIN = frozenset((int, bool, str))
#: tails one stream keeps the bytes of; past it a tail is encoded each time
_TAILS_KEPT = 256

# random() yields multiples of 2**-53; only the exact-zero draw falls below
# this floor.  Quantile transforms require u > 0.
_U_FLOOR = 2.0 ** -54


def _encode(scope) -> bytes:
    return b"".join([str(part).encode("utf-8") + b"\x00" for part in scope])


def _scope_head(master_seed: int, scope: tuple) -> bytes:
    """The digest input's head: the packed master seed and the first scope part."""
    return _SEED.pack(master_seed & _MASK64) + _encode(scope[:1])


def _scope_digest(master_seed: int, scope: tuple) -> bytes:
    return hashlib.sha256(_scope_head(master_seed, scope) + _encode(scope[1:])).digest()


def derive_seed(master_seed: int, *scope) -> int:
    """64-bit integer seed for (master_seed, scope), e.g. per sweep point."""
    digest = _scope_digest(master_seed, scope)
    return _SEED.unpack(digest[16:24])[0]


class RngStream:
    """Single-owner random stream; mutate only from one task at a time.

    ``generator`` is the numpy Generator over this stream's SFC64 state, for
    samplers numpy already provides; :meth:`reseed` rewinds it too.
    """

    __slots__ = ("_bitgen", "generator", "_head", "_head_hash", "_tails", "_state", "_words")

    def __init__(self, master_seed: int, *scope):
        bitgen = np.random.SFC64(0)  # reseed replaces this state
        self.__setstate__((bitgen, np.random.Generator(bitgen)))
        self.reseed(master_seed, *scope)

    def reseed(self, master_seed: int, *scope) -> "RngStream":
        """Set this stream to (master_seed, scope)'s state, the one a fresh
        construction has; cheaper than building a new generator.

        The stream's two caches spare the encoding of scope parts seen
        before, each keyed by the parts' values and exact types (``1``,
        ``1.0`` and ``True`` are distinct parts): the hash of the last head,
        (master_seed, scope[0]), so a run of reseeds that share it hashes
        only the rest of each scope; and the bytes of up to
        :data:`_TAILS_KEPT` tails, scope[1:].  Only int, bool and str parts
        are cached, as their bytes are a function of type and value: a
        float's are not (``0.0 == -0.0``, but they encode apart), nor those
        of a str subclass, whose ``str()`` may differ."""
        # types first: values are compared only once their types are equal,
        # and so plain, since only plain keys are kept.  None stands for an
        # empty scope's first part; it is not plain, so that head is not kept
        first = scope[0] if scope else None
        head = (type(master_seed), type(first), master_seed, first)
        if head != self._head:
            self._head_hash = hashlib.sha256(_scope_head(master_seed, scope))
            self._head = head if _PLAIN.issuperset(head[:2]) else None
        tail = scope[1:]
        key = (*map(type, tail), tail)
        try:
            encoded = self._tails.get(key)
        except TypeError:  # an unhashable part, such as a list
            encoded = None
        if encoded is None:
            encoded = _encode(tail)
            if _PLAIN.issuperset(key[:-1]) and len(self._tails) < _TAILS_KEPT:
                self._tails[key] = encoded
        digest = self._head_hash.copy()
        digest.update(encoded)
        words = self._words
        words[0], words[1], _, words[2] = _DIGEST_WORDS.unpack(digest.digest())
        # the setter copies the words; it takes a list of ints faster than an array
        self._bitgen.state = self._state
        self._bitgen.random_raw(12)
        return self

    def __getstate__(self):
        # a hashlib object does not pickle; the caches are rebuilt on use
        return self._bitgen, self.generator

    def __setstate__(self, state):
        self._bitgen, self.generator = state
        self._head = self._head_hash = None
        self._tails = {}
        self._words = [0, 0, 0, 1]  # words a, b, c and the counter
        self._state = {"bit_generator": "SFC64", "state": {"state": self._words},
                       "has_uint32": 0, "uinteger": 0}

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniforms on (0, 1), floored away from exact zero."""
        u = self.generator.random(n)
        return np.maximum(u, _U_FLOOR, out=u)
