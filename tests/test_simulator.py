"""Simulator correctness: hand-traced schedules, the recurrence-recursion
oracle, engine equivalence, invariants, and reproducibility.

The deterministic instances use dyadic gap lengths (0.25, 0.5, 0.75, ...) so
cumulative event times are exact in binary floating point and the recorded
trajectories can be compared against the hand tables with ==.
"""

import hashlib
import heapq
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versionage import (
    Beta,
    CacheNetwork,
    ChiSquare,
    Deterministic,
    Exponential,
    InvalidParameter,
    ParetoI,
    Rayleigh,
    RngStream,
    Uniform,
    monte_carlo,
    simulate_once,
)
from versionage import renewal
from versionage.experiments import fig5_network, fig6_network
from versionage.analytic import link_contribution
from versionage.renewal import Z_GATE, event_times_until, z_score
from versionage.simulator import BLOCK, ESTIMATORS, SOURCE_STREAM, _block_rows, _link_stream, _Replicator


def D(c):
    return Deterministic(c=c)


def chain(source_dist, link_dists, names=None):
    names = names or ["s"] + [f"n{i}" for i in range(1, len(link_dists) + 1)]
    links = [(names[i], names[i + 1], d) for i, d in enumerate(link_dists)]
    return CacheNetwork(nodes=names, source=names[0], source_dist=source_dist, links=links)


def realized_events(network, master_seed, iteration, horizon):
    """Each stream's event times up to and past horizon, drawn exactly as the
    simulator draws them at that horizon: replication BLOCK * b + j reads row
    j of the stream's block b."""
    block, row = divmod(iteration, BLOCK)

    def draw(sid, dist):
        width = renewal._first_rows(dist, horizon)
        return list(_block_rows(dist, RngStream(0), horizon, width, master_seed, block, sid))[row]

    out = {"source": draw(SOURCE_STREAM, network.source_dist)}
    for link in network.links:
        out[(link.src, link.dst)] = draw(_link_stream(link), link.dist)
    return out


def both_engines(network, horizon):
    """simulate_once's replication (seed 1, iteration 0), after checking that
    monte_carlo, run for that one iteration on every node, reads the same
    under each estimator."""
    r = simulate_once(network, horizon, master_seed=1)
    for estimator in ESTIMATORS:
        out = monte_carlo(network, targets=list(network.nodes), horizon=horizon, iterations=1,
                          master_seed=1, estimator=estimator)
        assert {n: oc.samples[0].item() for n, oc in out.items()} == getattr(r, estimator), estimator
    return r


# -- hand-traced deterministic instances ------------------------------------------

def test_trace_one_hop():
    # source every 1, deliveries every 1.3, sampled at 3.5
    network = chain(D(1.0), [D(1.3)], names=["s", "u"])
    r = both_engines(network, 3.5)
    assert r.steps["s"] == [(1.0, 1), (2.0, 2), (3.0, 3)]
    assert r.steps["u"] == [(1.3, 1), (2.6, 2)]
    assert r.terminal["u"] == 1
    assert r.time_average["u"] == pytest.approx(1.1 / 1.75, rel=1e-12)


def test_trace_synchronized_ties():
    # deliveries coincide with source updates and carry the source's version
    # after that instant's update, so the cache's age stays 0
    network = chain(D(1.0), [D(1.0)], names=["s", "u"])
    r = both_engines(network, 3.0)
    assert r.steps["u"] == [(1.0, 1), (2.0, 2), (3.0, 3)]
    assert r.terminal["u"] == 0
    assert r.time_average["u"] == 0.0


def test_trace_two_hop_dyadic():
    network = chain(D(0.5), [D(0.75), D(1.25)], names=["s", "a", "b"])
    r = both_engines(network, 4.0)
    assert r.steps["a"] == [(0.75, 1), (1.5, 3), (2.25, 4), (3.0, 6), (3.75, 7)]
    assert r.steps["b"] == [(1.25, 1), (2.5, 4), (3.75, 7)]
    assert r.terminal == {"s": 0, "a": 1, "b": 1}
    assert r.time_average["b"] == pytest.approx((11.0 - 7.25) / 2.0, rel=1e-12)


def test_trace_diamond():
    # two staggered feeds into c; the freshest version wins regardless of
    # which link delivered last
    network = CacheNetwork(
        nodes=["s", "a", "b", "c"],
        source="s",
        source_dist=D(0.5),
        links=[
            ("s", "a", D(1.0)),
            ("s", "b", D(1.5)),
            ("a", "c", D(2.0)),
            ("b", "c", D(2.25)),
        ],
    )
    r = both_engines(network, 9.75)
    assert r.steps["a"][:4] == [(1.0, 2), (2.0, 4), (3.0, 6), (4.0, 8)]
    assert r.steps["b"][:3] == [(1.5, 3), (3.0, 6), (4.5, 9)]
    # deliveries into c at 2, 2.25, 4, 4.5, 6, 6.75, 8, 9; stale ones change nothing
    assert r.steps["c"] == [(2.0, 4), (4.0, 8), (4.5, 9), (6.0, 12), (8.0, 16), (9.0, 18)]
    assert r.terminal["c"] == 19 - 18


def test_trace_multicast_tree():
    network = CacheNetwork(
        nodes=["s", "a", "b", "c", "d"],
        source="s",
        source_dist=D(0.25),
        links=[
            ("s", "a", D(0.5)),
            ("a", "b", D(1.0)),
            ("a", "c", D(1.5)),
            ("s", "d", D(2.0)),
        ],
    )
    r = both_engines(network, 4.8)
    assert r.steps["a"][:4] == [(0.5, 2), (1.0, 4), (1.5, 6), (2.0, 8)]
    assert r.steps["b"] == [(1.0, 4), (2.0, 8), (3.0, 12), (4.0, 16)]
    assert r.steps["c"] == [(1.5, 6), (3.0, 12), (4.5, 18)]
    assert r.steps["d"] == [(2.0, 8), (4.0, 16)]
    assert r.terminal == {"s": 0, "a": 1, "b": 3, "c": 1, "d": 3}


def test_no_events_before_horizon_means_zero_age():
    network = chain(D(5.0), [D(7.0), D(9.0)])
    r = both_engines(network, 1.0)
    assert all(v == 0 for v in r.terminal.values())
    assert all(v == 0.0 for v in r.time_average.values())


# -- recurrence-recursion oracle ---------------------------------------------------

def count_at(events, t):
    return int(np.searchsorted(events, t, side="right"))


def recursion_age(events, path_keys, horizon):
    """Version age at the end of a chain via the backward-recurrence cascade:
    walk each hop's last delivery time backwards, then count source renewals
    in the remaining window.  Independent of the simulator's state machine."""
    t = horizon
    for key in path_keys:  # deepest link first
        n = count_at(events[key], t)
        t = float(events[key][n - 1]) if n else 0.0
    src = events["source"]
    return count_at(src, horizon) - count_at(src, t)


def test_recursion_oracle_on_dyadic_chain():
    network = chain(D(0.5), [D(0.75), D(1.25)], names=["s", "a", "b"])
    horizon = 4.0
    events = realized_events(network, 1, 0, horizon + 10.0)
    want = recursion_age(events, [("a", "b"), ("s", "a")], horizon)
    got = both_engines(network, horizon).terminal["b"]
    assert got == want == 1


def test_recursion_oracle_on_random_chains():
    network = chain(
        Exponential(rate=2.0),
        [Rayleigh(sigma=1.0), Uniform(lo=0.0, hi=2.0), Exponential(rate=1.0)],
        names=["s", "a", "b", "c"],
    )
    horizon = 80.0
    for it in range(25):
        events = realized_events(network, 77, it, horizon)
        want = recursion_age(events, [("b", "c"), ("a", "b"), ("s", "a")], horizon)
        got = simulate_once(network, horizon, master_seed=77, iteration=it).terminal["c"]
        assert got == want


def test_diamond_matches_direct_recurrence_evaluation():
    """On the diamond, evaluate the indicator/min recursion straight from the
    realized event sequences and compare with the simulator at probe times."""
    network = CacheNetwork(
        nodes=["s", "a", "b", "c"],
        source="s",
        source_dist=D(0.5),
        links=[
            ("s", "a", D(1.0)),
            ("s", "b", D(1.5)),
            ("a", "c", D(2.0)),
            ("b", "c", D(2.25)),
        ],
    )
    horizon = 9.75
    events = realized_events(network, 1, 0, horizon + 20.0)
    src = events["source"]

    def one_hop_age(feed_key, t):
        # age of a single-feed cache: source renewals since its last delivery
        last = last_delivery(feed_key, t)
        return count_at(src, t) - count_at(src, last)

    def last_delivery(key, t):
        n = count_at(events[key], t)
        return float(events[key][n - 1]) if n else 0.0

    def age_c(t):
        # the most recent feed into c wins; its feeds deliver at 2, 4, ...
        # and 2.25, 4.5, ..., which never coincide before the horizon
        la, lb = last_delivery(("a", "c"), t), last_delivery(("b", "c"), t)
        if la >= lb:
            winner, upstream, s = ("a", "c"), ("s", "a"), la
        else:
            winner, upstream, s = ("b", "c"), ("s", "b"), lb
        inner = min(one_hop_age(upstream, s), age_c_before(s))
        return inner + count_at(src, t) - count_at(src, s)

    def age_c_before(t):
        # age of c just before its delivery at time t: same recursion on the
        # strictly earlier deliveries
        la = last_strictly_before(("a", "c"), t)
        lb = last_strictly_before(("b", "c"), t)
        if la == 0.0 and lb == 0.0:
            return count_at(src, t)
        if la >= lb:
            upstream, s = ("s", "a"), la
        else:
            upstream, s = ("s", "b"), lb
        inner = min(one_hop_age(upstream, s), age_c_before(s))
        return inner + count_at(src, t) - count_at(src, s)

    def last_strictly_before(key, t):
        arr = events[key]
        n = int(np.searchsorted(arr, t, side="left"))
        return float(arr[n - 1]) if n else 0.0

    r = simulate_once(network, horizon, master_seed=1)

    def simulated_age_c(t):
        version = 0
        for when, value in r.steps["c"]:
            if when <= t:
                version = value
        return count_at(src, t) - version

    for probe in (1.9, 2.0, 2.25, 3.1, 4.4, 4.5, 5.9, 6.75, 8.2, 9.0, 9.6):
        assert simulated_age_c(probe) == age_c(probe), f"probe t={probe}"


# -- invariants ---------------------------------------------------------------------

def step_value(steps, t):
    v = 0
    for τ, version in steps:
        if τ <= t:
            v = version
    return v


def test_monotone_staleness_on_tree():
    network = CacheNetwork(
        nodes=["s", "a", "b", "c"],
        source="s",
        source_dist=Exponential(rate=2.0),
        links=[("s", "a", Rayleigh(sigma=1.0)), ("a", "b", Uniform(lo=0.0, hi=2.0)),
               ("a", "c", Exponential(rate=1.0))],
    )
    for it in range(10):
        r = simulate_once(network, 50.0, master_seed=5, iteration=it)
        probe_times = sorted(t for steps in r.steps.values() for t, _ in steps)
        for t in probe_times:
            w0 = step_value(r.steps["s"], t)
            for child, parent in (("a", "s"), ("b", "a"), ("c", "a")):
                assert step_value(r.steps[child], t) <= step_value(r.steps[parent], t)
                assert step_value(r.steps[child], t) <= w0


def test_link_declaration_order_is_irrelevant():
    links = [
        ("s", "a", Rayleigh(sigma=1.0)),
        ("a", "b", Uniform(lo=0.0, hi=2.0)),
        ("a", "c", Exponential(rate=1.0)),
    ]
    nodes = ["s", "a", "b", "c"]
    base = CacheNetwork(nodes=nodes, source="s", source_dist=Exponential(rate=2.0), links=links)
    ref = simulate_once(base, 60.0, master_seed=9)
    for perm in ([2, 1, 0], [1, 2, 0], [2, 0, 1]):
        shuffled = CacheNetwork(
            nodes=nodes, source="s", source_dist=Exponential(rate=2.0),
            links=[links[i] for i in perm],
        )
        r = simulate_once(shuffled, 60.0, master_seed=9)
        assert r.terminal == ref.terminal
        assert r.steps == ref.steps


# -- engine equivalence ---------------------------------------------------------------

MIXED_TREE = CacheNetwork(
    nodes=["s", "a", "b", "c", "d", "e"],
    source="s",
    source_dist=D(0.5),
    links=[
        ("s", "a", Uniform(lo=0.0, hi=2.0)),
        ("a", "b", D(1.0)),
        ("a", "c", Exponential(rate=1.0)),
        ("s", "d", ChiSquare(k=1)),
        ("b", "e", Beta(alpha=2.0, beta=3.0)),
    ],
)


def test_tree_fast_path_matches_event_engine():
    from versionage.simulator import _run_blocks

    # 30 iterations: three whole blocks and one clipped at 6 rows
    targets = ["b", "c", "d", "e"]
    reps = {e: _Replicator(MIXED_TREE, targets, 40.0, e) for e in ESTIMATORS}
    fast = {e: _run_blocks([rep], 123, 30, range(4))[0][0] for e, rep in reps.items()}
    for it in range(30):
        slow = simulate_once(MIXED_TREE, 40.0, master_seed=123, iteration=it)
        for estimator in ESTIMATORS:
            assert fast[estimator][it].tolist() == [getattr(slow, estimator)[t] for t in targets], (estimator, it)



def test_a_traced_span_that_starts_at_knot_zero_matches_the_event_loop():
    # a's first delivery comes after horizon/2 in most rows, so its window
    # starts at knot 0, which reads the source's knot 0; a is read over one
    # span that holds its own window and b's and c's reads
    network = CacheNetwork(nodes=["s", "a", "b", "c"], source="s", source_dist=ParetoI(shape=3.0, scale=0.5),
                           links=[("s", "a", Uniform(lo=400.0, hi=800.0)), ("a", "b", Exponential(rate=1.0)),
                                  ("a", "c", Rayleigh(sigma=1.0))])
    targets = ["a", "b", "c"]
    out = monte_carlo(network, targets=targets, horizon=1e3, iterations=24, estimator="time_average")
    late = 0
    for i in range(24):
        alone = simulate_once(network, 1e3, master_seed=1, iteration=i).time_average
        assert [out[t].samples[i].item() for t in targets] == [alone[t] for t in targets], i
        late += bool(realized_events(network, 1, i, 1e3)[("s", "a")][0] > 500.0)
    assert 0 < late < 24


def test_replicators_share_a_source_window_only_under_one_source_key(monkeypatch):
    from versionage.experiments import fig7_network
    from versionage.simulator import _run_blocks

    # 13 replications are two blocks, the second of 5 rows.  The first two
    # replicators read one source key; the horizon-800 one another, and the
    # terminal one none, so 13 rows of each key find their window once
    reps = [_Replicator(fig7_network(0.05), ["n4"], 1e3, "time_average"),
            _Replicator(fig7_network(1.0 / 3.0), ["n4"], 1e3, "time_average"),
            _Replicator(fig7_network(0.05), ["n4"], 800.0, "time_average"),
            _Replicator(fig7_network(0.05), ["n4"], 1e3, "terminal")]
    alone = [_run_blocks([rep], 6, 13, range(2))[0][0] for rep in reps]
    calls = []
    source = _Replicator._source
    monkeypatch.setattr(_Replicator, "_source", lambda self, events: calls.append(self) or source(self, events))
    (together,) = _run_blocks(reps, 6, 13, range(2))
    for rows, own in zip(together, alone):
        assert rows.tobytes() == own.tobytes()
    assert [calls.count(rep) for rep in reps] == [13, 0, 13, 0]


def test_check_run_finds_repeated_targets_in_linear_time(alarm):
    from versionage.simulator import check_run

    network = fig6_network(10_000)
    alarm(1)
    check_run(network, 1.0, 2, "terminal", [f"n{i}" for i in range(1, 10_001)])

TIE_GAPS = [D(0.25), D(0.5), D(0.75), D(1.0), D(1.5)]
#: about half of its draws are exactly 0.0: coincident events, and events at t = 0
ZERO_GAPS = Beta(alpha=0.001, beta=1.0)
#: mean 8 against a horizon of 12: often no delivery in the averaging window or
#: at all, so readings fall on knot 0 (time 0, version 0)
SLOW_GAPS = Exponential(rate=0.125)


@st.composite
def random_networks(draw):
    """Trees and general graphs: a random spanning tree from the source, plus
    extra links that give caches several feeds or close cycles among them.
    Dyadic deterministic gaps and zero gaps make simultaneous events common,
    and slow links leave caches without deliveries."""
    n = draw(st.integers(1, 5))
    nodes = ["s"] + [f"c{i}" for i in range(1, n + 1)]
    pairs = {(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, n + 1)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n), st.integers(1, n)), max_size=4)):
        if a != b:
            pairs.add((nodes[a], nodes[b]))
    gaps = st.one_of(
        st.sampled_from(TIE_GAPS),
        st.sampled_from([Exponential(rate=1.0), Uniform(lo=0.0, hi=2.0), ZERO_GAPS, SLOW_GAPS]),
    )
    links = draw(st.permutations([(a, b, draw(gaps)) for a, b in sorted(pairs)]))
    source_dist = draw(st.sampled_from([D(0.25), D(0.5), Exponential(rate=2.0), ZERO_GAPS]))
    return CacheNetwork(nodes=nodes, source="s", source_dist=source_dist, links=links)


@settings(max_examples=150, deadline=None)
@given(network=random_networks(), seed=st.integers(0, 2**32), pick=st.integers(0, 10))
def test_monte_carlo_matches_event_loop_on_random_networks(network, seed, pick):
    # the engine traces only what the targets read, so run every node as a
    # target and a single leaf (any cache when there is none) on its own
    horizon, iterations = 12.0, 3
    runs = [simulate_once(network, horizon, seed, iteration=i) for i in range(iterations)]
    leaves = network.leaves() or list(network.nodes[1:])
    for targets in (list(network.nodes), [leaves[pick % len(leaves)]]):
        for estimator in ESTIMATORS:
            out = monte_carlo(network, targets=targets, horizon=horizon,
                              iterations=iterations, master_seed=seed, estimator=estimator)
            for node, outcome in out.items():
                assert outcome.samples.tolist() == [getattr(r, estimator)[node] for r in runs]


def test_terminal_and_time_average_estimators_agree():
    network = chain(Exponential(rate=2.0), [Uniform(lo=0.0, hi=2.0), Uniform(lo=0.0, hi=2.0)])
    kw = dict(horizon=500.0, iterations=3000, master_seed=31)
    term = monte_carlo(network, **kw, estimator="terminal")["n2"]
    tavg = monte_carlo(network, **kw, estimator="time_average")["n2"]
    joint = math.hypot(term.stderr, tavg.stderr)
    assert abs(term.mean - tavg.mean) <= 4.0 * joint


# -- monte carlo plumbing ---------------------------------------------------------------

def test_monte_carlo_is_deterministic():
    a = monte_carlo(MIXED_TREE, targets=["b"], horizon=30.0, iterations=50, master_seed=8)
    b = monte_carlo(MIXED_TREE, targets=["b"], horizon=30.0, iterations=50, master_seed=8)
    assert np.array_equal(a["b"].samples, b["b"].samples)
    one = monte_carlo(MIXED_TREE, targets=["b"], horizon=30.0, iterations=1, master_seed=8)
    assert one["b"].samples[0] == a["b"].samples[0]
    assert one["b"].stderr == 0.0


# diamond s->{a,b}->c with a cache cycle c<->d
CYCLIC_GRAPH = CacheNetwork(
    nodes=["s", "a", "b", "c", "d"],
    source="s",
    source_dist=Exponential(rate=2.0),
    links=[("s", "a", Exponential(rate=1.0)), ("s", "b", Exponential(rate=1.0)),
           ("a", "c", Uniform(lo=0.0, hi=2.0)), ("b", "c", Uniform(lo=0.0, hi=2.0)),
           ("c", "d", Exponential(rate=2.0)), ("d", "c", D(0.5))],
)


@pytest.mark.parametrize(
    "network, kw, digest",
    [
        # beta(2, 3)'s product sampler draws its blocks as one batch
        (fig5_network(1 / 3), dict(horizon=1e3, iterations=24, master_seed=5),
         "ecf0352c6315566ba8c7c503415060b3451c9c66b18a751040769cc1c779f327"),
        (fig6_network(3), dict(horizon=1e3, iterations=24, master_seed=6, estimator="time_average"),
         "c780c1a106e326385fe981bc981961655dd10a2bb3063794a3dfd5f5522e99e8"),
        (CYCLIC_GRAPH, dict(targets=["c", "d"], horizon=40.0, iterations=60, master_seed=7,
                            estimator="time_average"),
         "cd95ca954eb9d31bbb81a3cd4af0ae57e7ce419ffb51fe7374ca4eee6149a7f6"),
        (CYCLIC_GRAPH, dict(targets=["c", "d"], horizon=40.0, iterations=60, master_seed=7,
                            estimator="terminal"),
         "06c667762013ec489cc16c2fc09e06533f5d28ffadeb7ce0454e3980b2644c05"),
    ],
    ids=["fig5-terminal", "fig6-3-time-average", "cyclic-general", "cyclic-general-terminal"],
)
def test_replications_keep_their_bytes(network, kw, digest):
    # pinned: a change that moves any stream or reading changes these, and
    # must say so
    out = monte_carlo(network, **kw)
    h = hashlib.sha256()
    for t in sorted(out):
        h.update(out[t].samples.tobytes())
    assert h.hexdigest() == digest


#: every law family.  The betas with a whole b draw factor by factor over a
#: batch, so a batch of their gaps is not their successive draws; pareto1
#: near shape 2 and the betas with alpha 0.01 have their first draw capped
#: at 1.25 n + 32 events, and at horizon 20 some rows of those betas end
#: short of the horizon (a pareto1 row never does: every gap is at least 1)
WHOLE_B = Beta(alpha=2.0, beta=3.0)
SHORT_ROWS = Beta(alpha=0.01, beta=1.5)
WHOLE_B_SHORT_ROWS = Beta(alpha=0.01, beta=2.0)
BLOCK_LAWS = [
    Exponential(rate=1.0), Uniform(lo=0.0, hi=2.0), Rayleigh(sigma=1.0), ChiSquare(k=1), ChiSquare(k=3),
    Beta(alpha=0.5, beta=1.5), WHOLE_B, SHORT_ROWS, WHOLE_B_SHORT_ROWS, ParetoI(shape=3.0, scale=1 / 3),
    ParetoI(shape=2.0000001, scale=1.0), D(0.75),
]


def squeeze_budget(monkeypatch, budget):
    # the simulator holds no budget of its own; a budget imported there would
    # be squeezed too, so a block drawn another way past it would show
    from versionage import renewal, simulator

    monkeypatch.setattr(renewal, "_EVENT_BUDGET", budget)
    monkeypatch.setattr(simulator, "_EVENT_BUDGET", budget, raising=False)


@pytest.mark.parametrize("squeeze", [False, True], ids=["in-budget", "past-budget"])
@pytest.mark.parametrize("horizon", [20.0, 1e3])
@pytest.mark.parametrize("law", BLOCK_LAWS, ids=str)
def test_a_block_is_eight_successive_draws(law, horizon, squeeze, monkeypatch):
    # a block is eight successive draws whose first gaps are one batch,
    # which changes no bit of them but for a whole-b beta; where every row
    # passes the horizon within its share of the batch, the rows come as one
    # array, the batch summed along them.  The event budget plays no part:
    # squeezed to room for one first draw but not for a block of them, each
    # block keeps its bytes and its form
    from versionage import renewal

    width = renewal._first_rows(law, horizon)
    sid = ("link", "s", "n1")
    in_budget = [_block_rows(law, RngStream(0), horizon, width, 9, block, sid) for block in range(4)]
    if squeeze:
        squeeze_budget(monkeypatch, 2 * width)
    arrays = []
    for block, expected in enumerate(in_budget):
        rows = _block_rows(law, RngStream(0), horizon, width, 9, block, sid)
        got = [row.tobytes() for row in rows]
        assert got == [row.tobytes() for row in expected]
        assert type(rows) is type(expected)
        rng = RngStream(9, block, *sid)
        head = [law.sample_batch(rng, BLOCK * width)]
        batch = np.cumsum(head[0].reshape(BLOCK, width), axis=1)
        assert got == [event_times_until(law, rng, horizon, head).tobytes() for _ in range(BLOCK)]
        drawn = _block_rows(law, RngStream(0), horizon, width, 9, block, sid, whole=False)
        assert [row.tobytes() for row in drawn] == got
        arrays.append(isinstance(rows, np.ndarray))
        assert arrays[-1] == bool((batch[:, -1] > horizon).all())
        if arrays[-1]:
            assert got == [row.tobytes() for row in batch]
        rng = RngStream(9, block, *sid)
        successive = [event_times_until(law, rng, horizon).tobytes() for _ in range(BLOCK)]
        assert (got == successive) == (law not in (WHOLE_B, WHOLE_B_SHORT_ROWS))
    if law in (SHORT_ROWS, WHOLE_B_SHORT_ROWS) and horizon == 20.0:
        assert 0 < sum(arrays) < len(arrays)
    else:
        assert all(arrays)


def test_a_whole_b_beta_whose_rows_end_short_keeps_its_law():
    # beta(0.01, 2) at horizon 20: a first draw is capped at 1.25 n + 32
    # events, about 2 sigma past the mean count, so about one block in five
    # has a row that ends short of the horizon and draws on past its share
    # of the batch.  Keeping a batch only when all its rows pass would drop
    # the rows with the most events, over 5 sigma below the renewal
    # function t / E[Y] + E[Y^2] / (2 E[Y]^2) - 1 here
    law, horizon = WHOLE_B_SHORT_ROWS, 20.0
    m = law.moments()
    target = horizon / m.mean + m.second_moment / (2.0 * m.mean * m.mean) - 1.0
    width = renewal._first_rows(law, horizon)
    counts = np.array([np.searchsorted(row, horizon, side="right") for block in range(1500)
                       for row in _block_rows(law, RngStream(0), horizon, width, 5, block, ("link", "s", "a"))])
    stderr = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(z_score(counts.mean(), target, stderr)) <= Z_GATE, (counts.mean(), target, stderr)


MIXED_CHAIN = chain(Exponential(rate=2.0), [Uniform(lo=0.0, hi=2.0), WHOLE_B, Rayleigh(sigma=1.0)])


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize(
    "network, targets, horizon, squeeze",
    [(MIXED_CHAIN, ["n2", "n3"], 40.0, False),
     (CYCLIC_GRAPH, ["c", "d"], 40.0, False),
     # at seed 12 the beta's block 1 ends a row short of the horizon, so
     # its rows are drawn one at a time off the batch
     (chain(Exponential(rate=2.0), [SHORT_ROWS]), ["n1"], 20.0, False),
     # the same for a whole-b beta, whose blocks 1 and 2 do so at seed 12
     (chain(Exponential(rate=2.0), [WHOLE_B_SHORT_ROWS]), ["n1"], 10.0, False),
     # a budget with room for each stream's first draw but for no block of
     # them: the blocks are still one batch each, so nothing moves
     (MIXED_CHAIN, ["n2", "n3"], 40.0, True)],
    ids=["chain", "cyclic", "short-rows", "whole-b-short-rows", "past-budget"],
)
def test_simulate_once_reproduces_any_replication(network, targets, horizon, squeeze, estimator, monkeypatch):
    from versionage import renewal

    kw = dict(targets=targets, horizon=horizon, iterations=21, master_seed=12, estimator=estimator)
    if squeeze:
        unsqueezed = monte_carlo(network, **kw)
        widths = [renewal._first_rows(law, horizon) for law in [network.source_dist, *(l.dist for l in network.links)]]
        squeeze_budget(monkeypatch, 2 * max(widths))
        assert BLOCK * min(widths) > 2 * max(widths)
    out = monte_carlo(network, **kw)
    if squeeze:
        assert all(np.array_equal(out[t].samples, unsqueezed[t].samples) for t in targets)
    for i in (0, BLOCK - 1, BLOCK, 20):
        alone = getattr(simulate_once(network, horizon, 12, iteration=i), estimator)
        assert [out[t].samples[i].item() for t in targets] == [alone[t] for t in targets], i


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_a_run_holds_one_block_at_a_time(estimator):
    # a rate-200 link's block is 8 rows of about 202 000 events, 12.9 MB; a
    # run of three blocks releases each block's rows before it draws the
    # next, so it peaks near one block, where holding the last read row of
    # the block before would peak near two
    law, horizon = Exponential(rate=200.0), 1e3
    block_bytes = BLOCK * renewal._first_rows(law, horizon) * 8
    tracemalloc.start()
    try:
        monte_carlo(chain(Exponential(rate=1.0), [law]), horizon=horizon, iterations=3 * BLOCK, master_seed=3,
                    estimator=estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes, peak / block_bytes


def test_monte_carlo_threads_do_not_change_results(cpus):
    # 261 iterations are 33 blocks, the last of 5 rows: a real two-worker
    # pool takes them in slices of 3 blocks
    cpus(2)
    kw = dict(horizon=30.0, iterations=261, master_seed=4)
    for network, targets in ((MIXED_TREE, ["b", "c"]), (CYCLIC_GRAPH, ["c", "d"])):
        serial = monte_carlo(network, targets=targets, **kw, threads=1)
        parallel = monte_carlo(network, targets=targets, **kw, threads=2)
        for t in targets:
            assert np.array_equal(serial[t].samples, parallel[t].samples)


def test_a_replicator_that_has_run_still_goes_through_the_pool():
    # a replicator that has run must still pickle and give the same rows in
    # the pool: its generators are the run's, not its own (monte_carlo sends
    # a fresh replicator, so this one is sent directly)
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    from versionage.simulator import _run_blocks

    rep = _Replicator(CYCLIC_GRAPH, ["c", "d"], 30.0, "terminal")
    run = partial(_run_blocks, [rep], 4, 12)
    [(serial,)] = run([0, 1])
    with ProcessPoolExecutor(max_workers=2) as pool:
        blocks = [rows for [(rows,)] in pool.map(run, [[0], [1]])]
    assert np.array_equal(np.concatenate(blocks), serial)


def test_monte_carlo_starts_at_most_one_worker_per_cpu(monkeypatch, lazy_pool):
    import os

    usable_cpus = renewal._usable_cpus
    network = chain(Exponential(rate=1.0), [Uniform(lo=0.0, hi=2.0)] * 2)
    kw = dict(horizon=40.0, iterations=30, master_seed=7)
    monkeypatch.setattr(renewal, "_usable_cpus", lambda: 2)
    serial = monte_carlo(network, **kw, threads=1)
    assert lazy_pool == []
    capped = monte_carlo(network, **kw, threads=5)
    assert [pool.workers for pool in lazy_pool] == [2]
    assert np.array_equal(serial["n2"].samples, capped["n2"].samples)
    # the usable CPUs are the affinity set: one of four installed is one
    # CPU, and so is an unknown count without an affinity set: no pool at all
    monkeypatch.setattr(renewal, "_usable_cpus", usable_cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    pinned = monte_carlo(network, **kw, threads=5)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    unknown = monte_carlo(network, **kw, threads=5)
    assert len(lazy_pool) == 1
    assert np.array_equal(serial["n2"].samples, pinned["n2"].samples)
    assert np.array_equal(serial["n2"].samples, unknown["n2"].samples)


def test_pool_tasks_are_contiguous_slices_of_whole_blocks(lazy_pool, cpus):
    # 797 iterations are 100 blocks, the last of 5 rows: at two workers
    # they go in 15 contiguous slices of up to 7 blocks (at most 8 x 2),
    # read and joined in block order
    cpus(2)
    network = chain(Exponential(rate=1.0), [Uniform(lo=0.0, hi=2.0), Exponential(rate=2.0)])
    kw = dict(horizon=20.0, iterations=797, master_seed=9, estimator="time_average")
    serial = monte_carlo(network, **kw, threads=1)
    assert lazy_pool == []
    pooled = monte_carlo(network, **kw, threads=2)
    (pool,) = lazy_pool
    assert pool.workers == 2 and len(pool.tasks) == 15 <= renewal._TASKS_PER_WORKER * 2
    assert pool.tasks == [list(range(b, min(b + 7, 100))) for b in range(0, 100, 7)]
    assert pool.ran == pool.tasks
    assert np.array_equal(serial["n2"].samples, pooled["n2"].samples)


@pytest.mark.parametrize("threads", [0, -3])
def test_monte_carlo_refuses_threads_below_one_before_any_draw(monkeypatch, threads):
    from versionage import simulator

    def fail(*args, **kwargs):
        raise AssertionError("nothing may be drawn and no worker may start")

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", fail)
    monkeypatch.setattr(simulator, "_block_rows", fail)
    with pytest.raises(InvalidParameter, match=f"threads must be at least 1, got {threads}"):
        monte_carlo(MIXED_TREE, horizon=40.0, iterations=30, threads=threads)


def test_monte_carlo_general_graph_matches_simulate_once():
    targets = ["a", "c", "d"]
    runs = [simulate_once(CYCLIC_GRAPH, 40.0, 3, iteration=i) for i in range(20)]
    for estimator in ESTIMATORS:
        out = monte_carlo(CYCLIC_GRAPH, targets=targets, horizon=40.0, iterations=20,
                          master_seed=3, estimator=estimator)
        for t in targets:
            assert out[t].samples.tolist() == [getattr(r, estimator)[t] for r in runs]


# a chain s -> a -> b -> c beside a cache x fed by both s and b: the graph is
# general, but no cache that c or a reads has two feeds
SIDE_CACHE = CacheNetwork(
    nodes=["s", "a", "b", "c", "x"],
    source="s",
    source_dist=Exponential(rate=2.0),
    links=[("s", "a", Uniform(lo=0.0, hi=2.0)), ("a", "b", D(0.5)), ("b", "c", Rayleigh(sigma=0.5)),
           ("s", "x", Exponential(rate=1.0)), ("b", "x", D(0.5))],
)


def test_targets_whose_caches_have_one_feed_are_traced_on_a_general_graph():
    targets, every = ["c", "a"], list(SIDE_CACHE.nodes)
    assert _Replicator(SIDE_CACHE, targets, 20.0, "terminal").tree
    assert not _Replicator(SIDE_CACHE, every, 20.0, "terminal").tree
    runs = [simulate_once(SIDE_CACHE, 20.0, 11, iteration=i) for i in range(20)]
    for estimator in ESTIMATORS:
        kw = dict(horizon=20.0, iterations=20, master_seed=11, estimator=estimator)
        traced = monte_carlo(SIDE_CACHE, targets=targets, **kw)
        iterated = monte_carlo(SIDE_CACHE, targets=every, **kw)
        for t in targets:
            assert traced[t].samples.tobytes() == iterated[t].samples.tobytes(), (estimator, t)
            assert traced[t].samples.tolist() == [getattr(r, estimator)[t] for r in runs], (estimator, t)


# versions reach y only against depth order, twice: s -> a -> b -> c, then
# c -> x (depth 3 to 1) and x -> y (y precedes x among the depth-1 nodes)
BACKWARD_GRAPH = CacheNetwork(
    nodes=["s", "y", "a", "x", "b", "c"],
    source="s",
    source_dist=Exponential(rate=2.0),
    links=[("s", "y", D(16.0)), ("s", "a", Exponential(rate=2.0)), ("s", "x", D(16.0)),
           ("a", "b", Exponential(rate=2.0)), ("b", "c", Uniform(lo=0.0, hi=1.0)),
           ("c", "x", Exponential(rate=2.0)), ("x", "y", Rayleigh(sigma=0.5))],
)
# every link dyadic: c -> d ties with e -> c at 1.5, 3, ..., so d reads c's
# version after e's delivery at that instant (first at 1.5: 6, not 4)
DYADIC_CYCLE = CacheNetwork(
    nodes=["s", "a", "b", "c", "d", "e"],
    source="s",
    source_dist=D(0.25),
    links=[("s", "a", D(0.5)), ("s", "b", D(0.25)), ("a", "c", D(1.0)), ("b", "e", D(0.5)),
           ("c", "d", D(0.75)), ("e", "c", D(1.5)), ("d", "c", D(2.0))],
)
# d sits on the cycle c <-> d but its one feed first delivers past the horizon
SILENT_CYCLE = CacheNetwork(
    nodes=["s", "a", "c", "d"],
    source="s",
    source_dist=Exponential(rate=2.0),
    links=[("s", "a", Exponential(rate=1.0)), ("a", "c", Uniform(lo=0.0, hi=2.0)),
           ("c", "d", D(16.0)), ("d", "c", D(0.5))],
)


@pytest.mark.parametrize(
    "network, targets, quiet",
    [
        (BACKWARD_GRAPH, ["y", "x", "c"], []),
        (DYADIC_CYCLE, ["c", "d"], []),
        (SILENT_CYCLE, ["c", "d"], ["d"]),
    ],
    ids=["two-backward-hops", "dyadic-ties", "silent-cycle-cache"],
)
def test_general_fixed_point_matches_simulate_once(network, targets, quiet):
    horizon, iterations = 12.0, 6
    runs = [simulate_once(network, horizon, 21, iteration=i) for i in range(iterations)]
    for node in targets:
        # quiet caches never change; the others do get versions in every run
        assert all(bool(r.steps[node]) != (node in quiet) for r in runs), node
    for estimator in ESTIMATORS:
        for threads in (1, 2):
            out = monte_carlo(network, targets=targets, horizon=horizon, iterations=iterations,
                              master_seed=21, estimator=estimator, threads=threads)
            for t in targets:
                assert out[t].samples.tolist() == [getattr(r, estimator)[t] for r in runs], (
                    estimator, threads, t)


def version_at(steps, t):
    """A node's version at t from its step history (0 before its first step)."""
    return max((v for s, v in steps if s <= t), default=0)


def first_delivery_after(events, node, t):
    """(time, sender) of node's first delivery after t."""
    return min((float(e[np.searchsorted(e, t, side="right")]), key[0])
               for key, e in events.items() if key != "source" and key[1] == node)


def deep_graph(hops, closing):
    """A chain s -> c1 -> ... -> c<hops> of fast links plus one more link,
    ``closing`` = (sender, receiver, law): (c<hops>, c1, law) closes a ring,
    and (s, c<hops>, law) gives the leaf a second feed."""
    nodes = ["s"] + [f"c{i}" for i in range(1, hops + 1)]
    links = [(a, b, Exponential(rate=4.0)) for a, b in zip(nodes, nodes[1:])]
    return CacheNetwork(nodes=nodes, source="s", source_dist=Exponential(rate=2.0), links=[*links, closing])


RING = deep_graph(40, ("c40", "c1", Uniform(lo=0.0, hi=0.5)))
# the leaf's slow second feed and its 40-hop chain each hold the fresher
# version part of the time
FED_LEAF_CHAIN = deep_graph(40, ("s", "c40", Exponential(rate=0.05)))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize(
    "network, targets, horizon",
    [(CYCLIC_GRAPH, ["c", "d"], 40.0), (CYCLIC_GRAPH, ["s", "c", "d"], 40.0), (CYCLIC_GRAPH, ["c", "d"], 0.3),
     (CYCLIC_GRAPH, ["c", "d"], 1.0), (CYCLIC_GRAPH, ["a", "b", "c", "d"], 40.0),
     (RING, RING.nodes[1:], 40.0), (FED_LEAF_CHAIN, FED_LEAF_CHAIN.nodes[1:], 40.0)],
    ids=["older-feed-after-lo", "source-target", "horizon-0.3", "horizon-1", "every-cache", "ring-40",
         "fed-leaf-chain-40"],
)
def test_window_start_matches_simulate_once(network, targets, horizon, estimator, threads):
    # each cache enters the estimator's window [horizon/2, horizon] at its
    # settled version there: at horizon 0.3 no event falls before horizon/2,
    # and at 1.0 d -> c first delivers exactly at horizon/2.  Every start
    # shares one search, so with every cache a target (on CYCLIC_GRAPH and
    # on the 40-cache graphs) the starts share the pairs upstream of them
    seed, iterations = 13, 12
    runs = [simulate_once(network, horizon, seed, iteration=i) for i in range(iterations)]
    out = monte_carlo(network, targets=targets, horizon=horizon, iterations=iterations,
                      master_seed=seed, estimator=estimator, threads=threads)
    for t in targets:
        assert out[t].samples.tolist() == [getattr(r, estimator)[t] for r in runs], t
    if network is CYCLIC_GRAPH and targets == ["c", "d"] and horizon == 40.0:
        # in replication 1, c's first delivery after horizon/2 (from d)
        # carries an older version than c holds there: c keeps its own
        lo = horizon / 2
        when, sender = first_delivery_after(realized_events(CYCLIC_GRAPH, seed, 1, horizon), "c", lo)
        assert sender == "d" and version_at(runs[1].steps["d"], when) < version_at(runs[1].steps["c"], lo)


@pytest.fixture
def heap_pops(monkeypatch):
    """Count the heap entries the simulator pops: the returned list's one
    item grows by one with each pop."""
    from versionage import simulator

    pops = [0]

    def heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(simulator, "heapq", SimpleNamespace(
        heappush=heapq.heappush, heapify=heapq.heapify, heapreplace=heapq.heapreplace, heappop=heappop))
    return pops


def test_one_search_keeps_a_deep_ring_linear(alarm, heap_pops):
    # a replication's one search merges the starts that meet on a (node,
    # time) pair, so on a 400-cache ring it pops about 7 000 heap entries
    # where a search per cache pops about 81 000
    alarm(30)
    ring = deep_graph(400, ("c400", "c1", Uniform(lo=0.0, hi=2.0)))
    out = monte_carlo(ring, targets=["c400"], horizon=250.0, iterations=BLOCK, master_seed=3, estimator="time_average")
    assert out["c400"].iterations == BLOCK
    assert heap_pops[0] <= 20_000 * BLOCK, heap_pops[0] / BLOCK


def test_a_start_expands_each_node_once(alarm, heap_pops):
    # a ladder of 50 rungs, each cache fed by both caches of the rung above:
    # the target reaches a cache k rungs up along 2^k paths, at up to k
    # times.  Expanding each node only at the latest time a start reaches
    # it, one start pushes (and so pops) at most one entry per link, plus
    # its own; a search that expanded every time reached pops over 1 600
    alarm(30)
    rungs = [("s", "x0"), ("s", "y0")] + [
        (f"{a}{i}", f"{b}{i + 1}") for i in range(49) for a in "xy" for b in "xy"]
    ladder = CacheNetwork(nodes=["s"] + [f"{a}{i}" for i in range(50) for a in "xy"], source="s",
                          source_dist=Exponential(rate=1.0),
                          links=[(a, b, Exponential(rate=1.0)) for a, b in rungs])
    monte_carlo(ladder, targets=["x49"], horizon=1e3, iterations=BLOCK, master_seed=3, estimator="terminal")
    assert heap_pops[0] <= (len(rungs) + 1) * BLOCK, heap_pops[0] / BLOCK


def assert_link_order_changes_nothing(network, order, horizon, seed):
    """Both engines give the same results with the links declared in
    ``order``, a permutation of their indices."""
    links = [(l.src, l.dst, l.dist) for l in network.links]
    shuffled = CacheNetwork(nodes=network.nodes, source=network.source, source_dist=network.source_dist,
                            links=[links[i] for i in order])
    for i in range(3):
        assert simulate_once(shuffled, horizon, seed, i).steps == simulate_once(network, horizon, seed, i).steps
    kw = dict(targets=list(network.nodes), horizon=horizon, iterations=3, master_seed=seed)
    for estimator in ESTIMATORS:
        want = monte_carlo(network, **kw, estimator=estimator)
        got = monte_carlo(shuffled, **kw, estimator=estimator)
        assert {n: oc.samples.tolist() for n, oc in got.items()} == {
            n: oc.samples.tolist() for n, oc in want.items()}, estimator


def test_dyadic_cycle_delivery_reads_settled_sender():
    # at 1.5, e -> c raises c to 6 and c -> d carries that 6, not c's 4
    r = simulate_once(DYADIC_CYCLE, 12.0, 21)
    assert r.steps["c"][:2] == [(1.0, 4), (1.5, 6)]
    assert r.steps["d"][0] == (1.5, 6)


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(DYADIC_CYCLE.links))))
def test_link_order_changes_nothing_on_dyadic_cycle(order):
    # every instant settles to one fixed point, whichever feed is listed first
    assert_link_order_changes_nothing(DYADIC_CYCLE, order, 12.0, 21)


@settings(max_examples=60, deadline=None)
@given(network=random_networks(), seed=st.integers(0, 2**32), data=st.data())
def test_link_order_changes_nothing_on_random_networks(network, seed, data):
    order = data.draw(st.permutations(range(len(network.links))))
    assert_link_order_changes_nothing(network, order, 12.0, seed)


def test_monte_carlo_default_targets_are_leaves():
    out = monte_carlo(MIXED_TREE, horizon=10.0, iterations=5, master_seed=1)
    assert set(out) == {"c", "d", "e"}


def test_monte_carlo_without_leaves_needs_targets():
    # every cache forwards to another, so there is no leaf to default to
    network = CacheNetwork(
        nodes=["s", "x", "y"], source="s", source_dist=Exponential(rate=1.0),
        links=[("s", "x", D(1.0)), ("x", "y", D(1.0)), ("y", "x", D(1.0))],
    )
    with pytest.raises(InvalidParameter, match="no leaves"):
        monte_carlo(network, horizon=10.0, iterations=3)
    assert set(monte_carlo(network, targets=["y"], horizon=10.0, iterations=3)) == {"y"}


def test_monte_carlo_rejects_empty_targets():
    with pytest.raises(InvalidParameter, match="the target list is empty"):
        monte_carlo(MIXED_TREE, targets=[], horizon=10.0, iterations=3)


def test_monte_carlo_refuses_a_target_named_twice(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Uniform, "sample_batch", no_draws)
    with pytest.raises(InvalidParameter, match=r"targets name \['n2'\] more than once"):
        monte_carlo(fig6_network(2), targets=["n2", "n2"], horizon=10.0, iterations=3)
    with pytest.raises(InvalidParameter, match=r"targets name \['n1', 'n2'\] more than once"):
        monte_carlo(fig6_network(2), targets=("n1", "n2", "n1", "n2"), horizon=10.0, iterations=3)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(horizon):
    network = chain(Exponential(rate=1.0), [Exponential(rate=1.0)])
    with pytest.raises(InvalidParameter, match="horizon"):
        simulate_once(network, horizon, master_seed=1)
    with pytest.raises(InvalidParameter, match="horizon"):
        monte_carlo(network, horizon=horizon, iterations=2)


def test_event_budget_is_checked_before_drawing(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in (Exponential, Uniform):
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    fast_link = chain(Exponential(rate=1.0), [Uniform(lo=0.0, hi=2.0), Exponential(rate=1e12)])
    fast_source = chain(Exponential(rate=1e12), [Uniform(lo=0.0, hi=2.0)])
    for network, stream in ((fast_link, "stream link n1->n2"), (fast_source, "stream source")):
        for run in (
            lambda: monte_carlo(network, horizon=1e3, iterations=5, threads=2),
            lambda: simulate_once(network, 1e3, master_seed=1),
        ):
            with pytest.raises(InvalidParameter, match=f"{stream} would draw about 1e\\+15 events"):
                run()


def test_monte_carlo_caps_iterations_before_drawing(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Exponential, "sample_batch", no_draws)
    network = chain(Exponential(rate=1.0), [Exponential(rate=1.0)])
    for iterations in (10**7 + 1, 10**400):
        with pytest.raises(InvalidParameter, match="iterations must be at most 1e\\+07"):
            monte_carlo(network, horizon=10.0, iterations=iterations)


def test_monte_carlo_checks_only_the_streams_it_draws(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Exponential, "sample_batch", no_draws)
    # the fast branch s -> b feeds no target, so monte_carlo never draws it;
    # simulate_once draws every stream and must reject it
    network = CacheNetwork(
        nodes=["s", "a", "b"],
        source="s",
        source_dist=D(0.5),
        links=[("s", "a", Uniform(lo=0.0, hi=2.0)), ("s", "b", Exponential(rate=1e12))],
    )
    out = monte_carlo(network, targets=["a"], horizon=1e3, iterations=5)
    assert out["a"].iterations == 5
    with pytest.raises(InvalidParameter, match="stream link s->b would draw about 1e\\+15 events"):
        monte_carlo(network, targets=["a", "b"], horizon=1e3, iterations=5)
    with pytest.raises(InvalidParameter, match="stream link s->b would draw about 1e\\+15 events"):
        simulate_once(network, 1e3, master_seed=1)


def test_poisson_two_hop_mean():
    # all-exponential 2-hop chain: limiting age is source_rate * (1/r1 + 1/r2)
    network = chain(Exponential(rate=1.0), [Exponential(rate=1.0), Exponential(rate=1.0)])
    out = monte_carlo(network, targets=["n2"], horizon=500.0, iterations=4000,
                      master_seed=17, estimator="time_average")["n2"]
    assert abs(out.mean - 2.0) <= 4.0 * out.stderr


@pytest.mark.parametrize(
    "network",
    [fig5_network(1 / 3),
     chain(ParetoI(shape=3.0, scale=1 / 3),
           [Exponential(rate=1.0), Uniform(lo=0.0, hi=2.0), ParetoI(shape=4.0, scale=0.75)])],
    ids=["fig5", "exponential-uniform-pareto1"],
)
def test_each_link_adds_its_own_share(network):
    # the closed form is additive: a link adds E[Y^2]/(2E[Y]) / E[Y_source]
    # to its receiver's age.  With every hop a target, the hops of one
    # replication read common streams, so the difference between
    # consecutive hops measures one link's share with a paired stderr far
    # below either hop's own; the leaf's total alone would pass a chain whose
    # laws sit in the wrong hops
    iterations = 6_000
    out = monte_carlo(network, targets=[l.dst for l in network.links], horizon=1e3, iterations=iterations,
                      master_seed=11, estimator="time_average", threads=2)
    source_mean = network.source_dist.moments().mean
    above = np.zeros(iterations)
    for link in network.links:
        increments = out[link.dst].samples - above
        above = out[link.dst].samples
        stderr = increments.std(ddof=1) / math.sqrt(iterations)
        z = z_score(increments.mean(), link_contribution(link.dist) / source_mean, stderr)
        assert abs(z) <= Z_GATE, (link.dst, increments.mean(), stderr)
