"""Stream derivation and reproducibility."""

import pickle

import numpy as np

from versionage import RngStream, derive_key, derive_seed


def test_derive_key_is_deterministic_and_scope_sensitive():
    k1 = derive_key(42, 3, "link", "a", "b")
    k2 = derive_key(42, 3, "link", "a", "b")
    assert np.array_equal(k1, k2)
    assert not np.array_equal(k1, derive_key(42, 4, "link", "a", "b"))
    assert not np.array_equal(k1, derive_key(43, 3, "link", "a", "b"))
    assert not np.array_equal(k1, derive_key(42, 3, "link", "b", "a"))


def test_scope_parts_do_not_concatenate():
    assert not np.array_equal(derive_key(1, "ab", "c"), derive_key(1, "a", "bc"))


def test_derive_seed_is_64_bit_and_stable():
    s = derive_seed(9, "sweep", "hop_count", 2)
    assert s == derive_seed(9, "sweep", "hop_count", 2)
    assert 0 <= s < 2**64
    assert s != derive_seed(9, "sweep", "hop_count", 3)


def test_reseed_equals_fresh_construction():
    # in turn these hit and miss the hash of the last (seed, scope[0]) head
    # that reseed keeps; 1, 1.0 and True are equal values but distinct
    # heads, and -1 and 2**64 + 5 pack to the words 2**64 - 1 and 5
    scopes = [
        (7, 12, "source"), (7, 12, "link", "a", "b"), (7, 12, "link", "b", "c"),
        (7, 13, "link", "a", "b"), (7, 12, "link", "a", "b"), (2**64 + 3, 0, "source"), (1,),
        (7, 1, "x"), (7, 1.0, "x"), (7, True, "x"), (7, 1, "x"), (7, 1),
        (-1, 0, "source"), (2**64 - 1, 0, "link", "a", "b"), (-1, 0, "source"),
        (2**64 + 5, 0, "source"), (5, 0, "source"), (2**64 + 5, 1, "source"),
        (3,), (3,), (3, "a"), (4,),
    ]
    assert len({derive_key(7, head, "x").tobytes() for head in (1, 1.0, True)}) == 3
    stream = RngStream(0, "other", "scope")
    for scope in scopes:
        # perturb the state before reseeding: a uint32 draw leaves half a word
        # buffered (has_uint32), beta draws advance the counter unevenly
        stream.uniforms(17)
        stream.generator.integers(0, 2**32, dtype=np.uint32)
        stream.generator.beta(2.0, 3.0, size=5)
        fresh = RngStream(*scope)
        again = stream.reseed(*scope)
        assert again is stream
        assert np.array_equal(again.key, fresh.key)
        assert np.array_equal(again.key, derive_key(*scope))
        assert np.array_equal(again.generator.integers(0, 2**32, size=9, dtype=np.uint32),
                              fresh.generator.integers(0, 2**32, size=9, dtype=np.uint32))
        assert np.array_equal(again.uniforms(64), fresh.uniforms(64))
        assert np.array_equal(again.generator.beta(2.0, 3.0, size=8), fresh.generator.beta(2.0, 3.0, size=8))


def test_a_reseeded_stream_pickles():
    stream = RngStream(0).reseed(7, 12, "source")
    stream.uniforms(5)
    copy = pickle.loads(pickle.dumps(stream))
    assert copy.uniforms(8).tobytes() == stream.uniforms(8).tobytes()
    # the copy keeps no head hash; its next reseeds still equal fresh streams
    for scope in ((7, 12, "link", "a", "b"), (7, 12, "source"), (8, 0, "source")):
        assert copy.reseed(*scope).uniforms(8).tobytes() == RngStream(*scope).uniforms(8).tobytes()


def test_uniforms_open_interval():
    u = RngStream(1).uniforms(1_000_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_distinct_streams_are_uncorrelated():
    a = RngStream(5, "x").uniforms(100_000)
    b = RngStream(5, "y").uniforms(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02
