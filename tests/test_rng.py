"""Stream derivation and reproducibility."""

import pickle

import numpy as np
import pytest

from versionage import (
    CacheNetwork,
    Exponential,
    InvalidParameter,
    RngStream,
    derive_seed,
    fig6_network,
    monte_carlo,
    simulate_once,
    sweep_network_family,
    verify_renewal_limits,
    verify_windowed_count_limit,
)
from versionage.distributions import check_seed


def _draws(*scope) -> bytes:
    return RngStream(*scope).uniforms(8).tobytes()


def _state(stream: RngStream) -> dict:
    """The whole bit-generator state, its word array as a list."""
    state = stream.generator.bit_generator.state
    return {**state, "state": {"state": state["state"]["state"].tolist()}}


def test_streams_are_deterministic_and_scope_sensitive():
    s1 = _draws(42, 3, "link", "a", "b")
    assert s1 == _draws(42, 3, "link", "a", "b")
    assert s1 != _draws(42, 4, "link", "a", "b")
    assert s1 != _draws(43, 3, "link", "a", "b")
    assert s1 != _draws(42, 3, "link", "b", "a")


def test_scope_parts_do_not_concatenate():
    assert _draws(1, "ab", "c") != _draws(1, "a", "bc")


def test_derive_seed_is_64_bit_and_stable():
    s = derive_seed(9, "sweep", "hop_count", 2)
    assert s == derive_seed(9, "sweep", "hop_count", 2)
    assert 0 <= s < 2**64
    assert s != derive_seed(9, "sweep", "hop_count", 3)


def test_check_seed_takes_exactly_the_64_bit_seeds():
    for seed in (0, 1, 2**64 - 1):
        assert check_seed(seed) == seed
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(InvalidParameter, match=r"0 <= seed < 2\*\*64"):
            check_seed(seed)
    assert check_seed(2.0) == 2 and type(check_seed(2.0)) is int
    for seed in (2.5, True, "1", float("inf")):
        with pytest.raises(InvalidParameter, match="a master seed must be a whole number"):
            check_seed(seed)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seeded_run_refuses_a_seed_outside_64_bits(seed):
    exp = Exponential(rate=1.0)
    net = CacheNetwork(["s", "a"], "s", exp, [("s", "a", exp)])
    runs = [
        lambda: monte_carlo(net, horizon=10.0, iterations=2, master_seed=seed),
        lambda: simulate_once(net, 10.0, seed),
        lambda: sweep_network_family("hop_count", [1], fig6_network, iterations=2, horizon=10.0, seed=seed),
        lambda: verify_renewal_limits(exp, [10.0], n_paths=10_000, master_seed=seed),
        lambda: verify_windowed_count_limit(exp, exp, n_paths=10_000, master_seed=seed),
    ]
    for call in runs:
        with pytest.raises(InvalidParameter, match=r"0 <= seed < 2\*\*64"):
            call()


def test_reseed_equals_fresh_construction():
    # neighbours share or switch their (seed, scope[0]) head; 1, 1.0 and True
    # are equal values but distinct heads, and -1 and 2**64 + 5 pack to the
    # words 2**64 - 1 and 5
    scopes = [
        (7, 12, "source"), (7, 12, "link", "a", "b"), (7, 12, "link", "b", "c"),
        (7, 13, "link", "a", "b"), (7, 12, "link", "a", "b"), (2**64 + 3, 0, "source"), (1,),
        (7, 1, "x"), (7, 1.0, "x"), (7, True, "x"), (7, 1, "x"), (7, 1),
        (-1, 0, "source"), (2**64 - 1, 0, "link", "a", "b"), (-1, 0, "source"),
        (2**64 + 5, 0, "source"), (5, 0, "source"), (2**64 + 5, 1, "source"),
        (3,), (3,), (3, "a"), (4,),
    ]
    assert len({str(_state(RngStream(7, head, "x"))) for head in (1, 1.0, True)}) == 3
    stream = RngStream(0, "other", "scope")
    for scope in scopes:
        # perturb the state before reseeding: a uint32 draw leaves half a word
        # buffered (has_uint32), beta draws advance the state unevenly
        stream.uniforms(17)
        stream.generator.integers(0, 2**32, dtype=np.uint32)
        stream.generator.beta(2.0, 3.0, size=5)
        fresh = RngStream(*scope)
        again = stream.reseed(*scope)
        assert again is stream
        assert _state(again) == _state(fresh)
        assert np.array_equal(again.generator.integers(0, 2**32, size=9, dtype=np.uint32),
                              fresh.generator.integers(0, 2**32, size=9, dtype=np.uint32))
        assert np.array_equal(again.uniforms(64), fresh.uniforms(64))
        assert np.array_equal(again.generator.beta(2.0, 3.0, size=8), fresh.generator.beta(2.0, 3.0, size=8))


class _Spoof(str):
    """Equal to its value as a str, but encoded as "spoof"."""

    def __str__(self):
        return "spoof"


# each scope's first uniform, pinned from streams that encoded every scope
# afresh.  Neighbours differ only in a part's type or sign, or switch heads
# and back, so a reseed memo keyed by value alone conflates them: 0.0 == -0.0 and
# 1 == 1.0 == True, yet each encodes apart (np.int64(1) encodes as 1 does)
CACHE_KEY_SCOPES = [
    ((1, 0.0, "a"), "0x1.1173bae5990f7p-1"),
    ((1, -0.0, "a"), "0x1.6b9fe82c730bbp-1"),
    ((1, 0.0, "a"), "0x1.1173bae5990f7p-1"),
    ((1, 1, "a"), "0x1.6a32c54e25510p-1"),
    ((1, 1.0, "a"), "0x1.e9c2c38ef3460p-1"),
    ((1, True, "a"), "0x1.e12dbdcdb5743p-1"),
    ((1, np.int64(1), "a"), "0x1.6a32c54e25510p-1"),
    ((1, 1, "a"), "0x1.6a32c54e25510p-1"),
    ((True, 1, "a"), "0x1.6a32c54e25510p-1"),
    ((1, "x", "a"), "0x1.cb756cfb35e15p-1"),
    ((1, _Spoof("x"), "a"), "0x1.1071bf0cc34f0p-1"),
    ((1, "x", "a"), "0x1.cb756cfb35e15p-1"),
    ((1, 2, "a", 1), "0x1.05b7e1714ce46p-2"),
    ((1, 3, "a", 1.0), "0x1.cca5f88436872p-2"),
    ((1, 2, "a", True), "0x1.70bd540b26640p-7"),
    ((1, 3, "a", np.int64(1)), "0x1.c7502f867e49ep-2"),
    ((1, 2, "a", 1), "0x1.05b7e1714ce46p-2"),
    ((1, 2, "a", 0.0), "0x1.3858dff4f486cp-1"),
    ((1, 3, "a", -0.0), "0x1.4576ef4756d0dp-1"),
    ((1, 2, "a", -0.0), "0x1.9d0aef0b7acefp-1"),
    ((1, 2, "a"), "0x1.cfc9bac484317p-1"),
    ((1, 2, _Spoof("a")), "0x1.5a7f6f9ae7dc4p-3"),
    ((1, 3, "a"), "0x1.fc7dc81a64da7p-1"),
    ((1, 0, "b"), "0x1.0f9cce191d1b0p-4"),
    ((1, 1, "b"), "0x1.a3f212425c2d6p-1"),
    ((1, 0, "b"), "0x1.0f9cce191d1b0p-4"),
    ((1,), "0x1.642694e5ad000p-1"),
    ((1, 0), "0x1.75310aa605374p-2"),
    # unhashable parts, and an array whose == answers element by element
    ((1, [1, 2], "a"), "0x1.e40fd97ad7a4ep-1"),
    ((1, 0, [1, 2]), "0x1.19d836731d444p-1"),
    ((1, np.arange(2), "a"), "0x1.5876dd014ad86p-2"),
    ((1, 0, "a", np.arange(2)), "0x1.9137c2c4ca1a0p-1"),
    ((1, 0, "a"), "0x1.c092e2c8341e8p-3"),
]


def test_reseed_caches_never_conflate_scopes():
    stream = RngStream(0, "other")
    for _ in range(2):
        for scope, first in CACHE_KEY_SCOPES:
            fresh = RngStream(*scope).uniforms(1)[0].hex()
            assert stream.reseed(*scope).uniforms(1)[0].hex() == fresh == first, scope
        # again through a pickled copy
        stream = pickle.loads(pickle.dumps(stream))


@pytest.mark.parametrize(
    "scope, raw, uniforms",
    [
        (None,
         ["7840d1ebb5d4d932", "492386d32027b27c", "c5970494fa9e8d30", "da30871245912b22"],
         ["0x1.e10347aed7536p-2", "0x1.248e1b4c809ecp-2"]),
        ((0, "fingerprint", "hit"),
         ["c4dc7306bc852b82", "182dbbee9a7d2cc4", "7968eec4afd4efde", "213fdb11437b57c3"],
         ["0x1.89b8e60d790a5p-1", "0x1.82dbbee9a7d28p-4"]),
        ((1, "fingerprint"),
         ["c7b01b7b534f3d40", "2af82186cf4f0696", "33b8795e4c797bb7", "54bc1d059409b6f5"],
         ["0x1.8f6036f6a69e7p-1", "0x1.57c10c367a780p-3"]),
    ],
    ids=["fresh", "reseed-head-hit", "reseed-head-miss"],
)
def test_stream_fingerprint(scope, raw, uniforms):
    # pinned output: any change of the stream, including one from a numpy
    # upgrade, changes every simulated and verified result
    def stream():
        s = RngStream(0, "fingerprint")
        return s if scope is None else s.reseed(*scope)

    assert [f"{w:016x}" for w in stream().generator.bit_generator.random_raw(4)] == raw
    assert [u.hex() for u in stream().uniforms(2)] == uniforms


def test_a_reseeded_stream_pickles():
    for stream in (RngStream(7, 12, "source"), RngStream(0).reseed(7, 12, "source")):
        stream.uniforms(5)
        copy = pickle.loads(pickle.dumps(stream))
        assert copy.uniforms(8).tobytes() == stream.uniforms(8).tobytes()
        # the copy's next reseeds still equal fresh streams
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
