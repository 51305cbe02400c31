"""Sweep construction, analytic columns, gating, and reproducibility.

Monte Carlo sizes here are deliberately small; the full-scale reproduction
runs live in the acceptance suite.
"""

import tracemalloc

import numpy as np
import pytest

from versionage import (
    CacheNetwork,
    Exponential,
    ExperimentSweep,
    InvalidParameter,
    SweepPoint,
    Uniform,
    fig6_network,
    fig7_network,
    monte_carlo,
    sweep_network_family,
    sweep_study,
)
from versionage import experiments
from versionage.experiments import CSV_HEADER, MAX_SWEEP_VALUES
from versionage.renewal import _first_rows, z_score
from versionage.rng import RngStream, derive_seed
from versionage.simulator import SimOutcome

THREE_LINK_SUM = 2.5478845608028653

FAST = dict(iterations=300, horizon=120.0, seed=11)


def test_source_mean_sweep_columns():
    sweep = sweep_study("fig5", (1.0 / 3.0, 2.0 / 3.0), **FAST)
    assert sweep.kind == "source_mean"
    assert [p.param for p in sweep.points] == [1.0 / 3.0, 2.0 / 3.0]
    for p in sweep.points:
        mu0 = 1.5 * p.param
        assert p.analytic == pytest.approx(THREE_LINK_SUM / mu0, rel=1e-12)
        assert p.outcome.iterations == FAST["iterations"]
        assert np.isfinite(p.z)


def test_hop_count_sweep_records_fit():
    sweep = sweep_study("fig6", (1, 2, 3), **FAST)
    for n, p in zip((1, 2, 3), sweep.points):
        assert p.analytic == pytest.approx((4.0 / 3.0) * n, rel=1e-12)
    assert sweep.slope is not None and sweep.intercept is not None


def test_link_variance_sweep_analytic_column():
    sweep = sweep_study("fig7", (0.05, 1.0 / 3.0), **FAST)
    for v, p in zip((0.05, 1.0 / 3.0), sweep.points):
        assert p.analytic == pytest.approx(4.0 * v + 4.0, rel=1e-12)


def test_fig7_rejects_variance_beyond_support():
    with pytest.raises(InvalidParameter):
        fig7_network(0.34)
    with pytest.raises(InvalidParameter):
        fig7_network(0.0)


def test_fig6_network_shape():
    net = fig6_network(4)
    assert len(net.links) == 4
    with pytest.raises(InvalidParameter):
        fig6_network(-1)
    with pytest.raises(InvalidParameter, match="whole number"):
        fig6_network(2.5)
    assert len(fig6_network(3.0).links) == 3
    assert len(fig6_network(MAX_SWEEP_VALUES).links) == MAX_SWEEP_VALUES
    with pytest.raises(InvalidParameter, match="hop count"):
        fig6_network(MAX_SWEEP_VALUES + 1)


def test_sweep_value_count_is_bounded_before_any_network_is_built():
    with pytest.raises(InvalidParameter, match=f"at most {MAX_SWEEP_VALUES} values"):
        sweep_study("fig6", range(1, 10**12))


def test_zero_hop_point_is_exactly_zero():
    sweep = sweep_study("fig6", (0, 1), iterations=50, horizon=60.0, seed=4)
    zero = sweep.points[0]
    assert zero.analytic == 0.0
    assert zero.outcome.mean == 0.0
    assert zero.z == 0.0


def test_sweep_point_z_is_the_verifiers_z():
    below = SimOutcome.from_samples("n1", "terminal", np.zeros(4), 10.0)
    assert SweepPoint(param=1.0, analytic=0.5, outcome=below, seed=0).z == -np.inf
    spread = SimOutcome.from_samples("n1", "terminal", np.array([0.0, 1.0, 2.0, 3.0]), 10.0)
    point = SweepPoint(param=1.0, analytic=0.5, outcome=spread, seed=0)
    assert point.z == z_score(spread.mean, 0.5, spread.stderr)


def test_variance_midpoint_analytic():
    from versionage import expected_version_age

    ages = expected_version_age(fig7_network(1.0 / 6.0))
    assert ages.per_node["n4"] == pytest.approx(14.0 / 3.0, rel=1e-12)


def test_source_mean_analytic_decreases_monotonically():
    from versionage import expected_version_age
    from versionage.experiments import fig5_network

    values = [expected_version_age(fig5_network(m)).per_node["n3"]
              for m in (0.25, 0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.25  # vanishes as the source slows


def test_sweep_values_must_be_monotone():
    with pytest.raises(InvalidParameter):
        sweep_study("fig5", (0.5, 0.5), **FAST)
    with pytest.raises(InvalidParameter):
        sweep_study("fig6", (1, 3, 2), **FAST)
    # decreasing is fine
    sweep = sweep_study("fig5", (2.0 / 3.0, 1.0 / 3.0), **FAST)
    assert [p.param for p in sweep.points] == [2.0 / 3.0, 1.0 / 3.0]


def test_sweep_needs_two_iterations_before_building_anything():
    # one replication gives no standard error, so the z gate could only
    # read +-inf; the sweep is refused before any network is built
    def no_build(value):
        raise AssertionError("no network may be built")

    for iterations in (1, 0):
        with pytest.raises(InvalidParameter, match="z gate divides by the standard error"):
            sweep_network_family("custom", (1, 2), no_build, iterations=iterations, horizon=50.0)
    sweep = sweep_study("fig6", (1,), iterations=2, horizon=50.0, seed=3)
    assert sweep.points[0].outcome.stderr > 0.0


def test_a_bad_last_value_is_refused_before_any_point_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "monte_carlo", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(experiments, "_replicate", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidParameter, match="hop count must lie in"):
        sweep_study("fig6", (1, 2, MAX_SWEEP_VALUES + 1), **FAST)
    with pytest.raises(InvalidParameter, match="link variance must lie in"):
        sweep_study("fig7", (0.05, 0.15, 0.5), **FAST)
    assert calls == []


def test_a_sweep_holds_one_network_at_a_time():
    # hops 1..60 total 1 830 hops, about 1 MB of networks held at once; one
    # network at a time peaks near the largest, 60 hops
    sweep_study("fig6", (1, 2), iterations=2, horizon=5.0, seed=1)
    tracemalloc.start()
    try:
        sweep_study("fig6", range(1, 61), iterations=2, horizon=5.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_csv_bytes_reproducible():
    a = sweep_study("fig6", (1, 2), **FAST)
    b = sweep_study("fig6", (1, 2), **FAST)
    assert a.csv_text() == b.csv_text()
    c = sweep_study("fig6", (1, 2), iterations=300, horizon=120.0, seed=12)
    assert c.csv_text() != a.csv_text()


def test_csv_format():
    sweep = sweep_study("fig5", (1.0 / 3.0,), **FAST)
    lines = sweep.csv_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "source_mean"
    assert float(fields[1]) == pytest.approx(1.0 / 3.0)
    assert len(fields) == len(CSV_HEADER.split(","))


def test_point_seeds_differ_per_point_and_kind():
    # every sweep is one run at point 0's seed, whether its points nest
    # (fig6) or not (fig7, whose links change law from point to point); the
    # seed differs per kind
    for kind, values in (("fig6", (1, 2)), ("fig7", (0.05, 0.15))):
        sweep = sweep_study(kind, values, **FAST)
        assert [p.seed for p in sweep.points] == [derive_seed(FAST["seed"], "sweep", sweep.kind, 0)] * 2
    assert sweep.points[0].seed != derive_seed(FAST["seed"], "sweep", "hop_count", 0)


@pytest.mark.parametrize("estimator", ["terminal", "time_average"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("values", [(0, 2, 3, 5), (6, 5, 4, 3, 2, 1)])
def test_nested_points_are_their_own_runs(values, threads, estimator):
    # a fig6 sweep is one run of its longest chain; each point's samples are
    # bit for bit those of its own chain's run at the shared seed
    run = dict(iterations=40, horizon=60.0, estimator=estimator)
    sweep = sweep_study("fig6", values, seed=5, threads=threads, **run)
    for p in sweep.points:
        leaf = f"n{p.param}" if p.param else "src"
        alone = monte_carlo(fig6_network(p.param), targets=[leaf], master_seed=p.seed, **run)[leaf]
        assert p.outcome.samples.dtype == alone.samples.dtype
        assert np.array_equal(p.outcome.samples, alone.samples)


def chain(n, first=None, rate=1.0):
    """An n-hop chain of uniform(0, 2) links but for the first's law."""
    nodes = ["s"] + [f"n{i}" for i in range(1, n + 1)]
    laws = [first or Uniform(lo=0.0, hi=2.0)] + [Uniform(lo=0.0, hi=2.0)] * (n - 1)
    return CacheNetwork(nodes=nodes, source="s", source_dist=Exponential(rate=rate),
                        links=list(zip(nodes, nodes[1:], laws)))


def forked(n):
    """s -> {a, b}, then a tail of n - 1 caches after a; a and b are
    declared in another order for each n, and n = 4 changes the source's
    law."""
    tail = [f"t{i}" for i in range(1, n)]
    sides = ["a", "b"] if n % 2 else ["b", "a"]
    links = [("s", "a", Uniform(lo=0.0, hi=2.0)), ("s", "b", Exponential(rate=1.0))]
    links += list(zip(["a", *tail], tail, [Uniform(lo=0.5, hi=1.5)] * len(tail)))
    return CacheNetwork(nodes=["s", *sides, *tail], source="s",
                        source_dist=Exponential(rate=2.0 if n == 4 else 1.0), links=links)


UNNESTED = {
    # the source's law changes from point to point: only the links are shared
    "fig5": (experiments.fig5_network, experiments.STUDIES["fig5"].values),
    # the links' law changes: only the source is shared
    "fig7": (fig7_network, experiments.STUDIES["fig7"].values),
    "source": (lambda n: chain(n, rate=float(n)), (1, 2, 3)),
    "first_link": (lambda n: chain(n, first=Uniform(lo=0.0, hi=float(n))), (1, 2, 3)),
    # the first three points nest, each declaring a and b in another order,
    # so they share the replicator of the largest; the last does not nest
    "forked": (forked, (1, 2, 3, 4)),
}


@pytest.mark.parametrize("estimator", ["terminal", "time_average"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("family", list(UNNESTED))
def test_unnested_points_are_their_own_runs(family, threads, estimator):
    # a sweep whose points do not all nest reads one replicator per group of
    # nesting points in one run, drawing the streams they share once per
    # block; 13 iterations end
    # a worker's range mid-block.  Each point's samples are bit for bit those
    # of its own network's run at the shared seed
    run = dict(iterations=13, horizon=60.0, estimator=estimator)
    make, values = UNNESTED[family]
    sweep = sweep_network_family(family, values, make, seed=5, threads=threads, **run)
    for p in sweep.points:
        network = make(p.param)
        leaf = experiments._deepest_leaf(network)
        alone = monte_carlo(network, targets=[leaf], master_seed=p.seed, **run)[leaf]
        assert p.outcome.samples.dtype == alone.samples.dtype
        assert np.array_equal(p.outcome.samples, alone.samples), p.param


def test_a_sweep_draws_each_shared_stream_once_per_block(monkeypatch):
    # fig5's four points share their three links: two blocks draw each link
    # once and each point's source once, 3 x 2 + 4 x 2 calls where one point
    # at a time made 4 x 4 x 2.  At this horizon every link's block is one
    # array
    from versionage import simulator

    calls = []
    block_rows = simulator._block_rows
    monkeypatch.setattr(simulator, "_block_rows", lambda *a, **k: calls.append(a[-1]) or block_rows(*a, **k))
    sweep_study("fig5", iterations=16, horizon=100.0, seed=3)
    assert len(calls) == 14
    assert sorted(set(calls)) == [("link", "n1", "n2"), ("link", "n2", "n3"), ("link", "src", "n1"), ("source",)]


def test_a_shared_stream_drawn_row_by_row_is_drawn_once_for_all_points(monkeypatch):
    # a beta(0.01, 1.5) link at horizon 20: at this seed its block 1 has a
    # row that ends short of the horizon, so that block comes row by row;
    # like block 0, which is one array, it is drawn once for all three
    # points, whose sources differ
    from versionage import Beta, simulator

    def make(rate):
        return CacheNetwork(nodes=["s", "n1"], source="s", source_dist=Exponential(rate=rate),
                            links=[("s", "n1", Beta(alpha=0.01, beta=1.5))])

    calls = []
    block_rows = simulator._block_rows
    monkeypatch.setattr(simulator, "_block_rows", lambda *a, **k: calls.append(a[-2:]) or block_rows(*a, **k))
    run = dict(iterations=16, horizon=20.0, estimator="time_average")
    sweep = sweep_network_family("short_rows", (1.0, 2.0, 3.0), make, seed=2, **run)
    link = ("link", "s", "n1")
    assert [calls.count((b, link)) for b in (0, 1)] == [1, 1]
    assert len(calls) == 2 + 3 * 2
    law = Beta(alpha=0.01, beta=1.5)
    assert not isinstance(block_rows(law, RngStream(0), 20.0, _first_rows(law, 20.0), sweep.points[0].seed, 1, link),
                          np.ndarray)
    for p in sweep.points:
        alone = monte_carlo(make(p.param), targets=["n1"], master_seed=p.seed, **run)["n1"]
        assert np.array_equal(p.outcome.samples, alone.samples), p.param


@pytest.mark.parametrize("estimator", ["terminal", "time_average"])
def test_points_that_nest_share_a_replicator(monkeypatch, estimator):
    # forked 1, 2 and 3 nest one in the other and run as one replicator of
    # forked(3); forked(4) changes the source's law and starts a second.
    # Each point's samples are still those of its own run
    from versionage import simulator

    built = []
    replicator = simulator._Replicator

    def counted(network, targets, *args):
        built.append((len(network.nodes), targets))
        return replicator(network, targets, *args)

    monkeypatch.setattr(experiments, "_Replicator", counted)
    run = dict(iterations=13, horizon=60.0, estimator=estimator)
    sweep = sweep_network_family("forked", (1, 2, 3, 4), forked, seed=5, **run)
    assert built == [(5, ["a", "t1", "t2"]), (6, ["t3"])]
    for p in sweep.points:
        leaf = experiments._deepest_leaf(forked(p.param))
        alone = monte_carlo(forked(p.param), targets=[leaf], master_seed=p.seed, **run)[leaf]
        assert np.array_equal(p.outcome.samples, alone.samples), p.param


def test_sweeps_that_do_not_nest_run_each_point_at_its_own_seed():
    # whether a sweep's points nest (one law throughout, or one chain for
    # every value) or not (a changed first link or source law), every point
    # runs at point 0's seed
    sweeps = [
        sweep_study("fig5", (1.0 / 3.0, 2.0 / 3.0), **FAST),
        sweep_study("fig7", (0.05, 0.15), **FAST),
        sweep_network_family("first_link", (1, 2, 3), UNNESTED["first_link"][0], **FAST),
        sweep_network_family("source", (1, 2, 3), UNNESTED["source"][0], **FAST),
        sweep_network_family("constant", (1, 2, 3), lambda n: chain(2), **FAST),
        sweep_network_family("nested", (1, 2, 3), chain, **FAST),
    ]
    for sweep in sweeps:
        seeds = [p.seed for p in sweep.points]
        assert seeds == [derive_seed(FAST["seed"], "sweep", sweep.kind, 0)] * len(seeds)
    # one chain for every value: every point reads the same samples
    constant = sweeps[4]
    assert all(np.array_equal(p.outcome.samples, constant.points[0].outcome.samples) for p in constant.points)


def fake_point(z_value):
    outcome = SimOutcome(
        node="n", estimator="terminal", samples=np.array([0.0, 1.0]),
        mean=float(z_value), stderr=1.0, iterations=2, horizon=1.0,
    )
    return SweepPoint(param=z_value, analytic=0.0, outcome=outcome, seed=0)


def test_gate_allows_one_outlier_in_twenty():
    ok = ExperimentSweep("custom", [fake_point(z) for z in (0.1, 5.0, 0.2)],
                         estimator="terminal", master_seed=0)
    assert ok.n_exceeding == 1
    assert ok.passed
    bad = ExperimentSweep("custom", [fake_point(z) for z in (5.0, -6.0, 0.2)],
                          estimator="terminal", master_seed=0)
    assert bad.n_exceeding == 2
    assert not bad.passed


def test_custom_family_sweep():
    def make(rate):
        return CacheNetwork(
            nodes=["s", "u"], source="s", source_dist=Exponential(rate=rate),
            links=[("s", "u", Uniform(lo=0.0, hi=2.0))],
        )

    sweep = sweep_network_family("custom", [1.0, 2.0], make, **FAST)
    assert [p.analytic for p in sweep.points] == [
        pytest.approx(2.0 / 3.0, rel=1e-12),
        pytest.approx(4.0 / 3.0, rel=1e-12),
    ]


def test_json_payload_shape():
    sweep = sweep_study("fig5", (1.0 / 3.0,), **FAST)
    payload = sweep.to_dict()
    assert payload["kind"] == "source_mean"
    assert payload["gate"]["z_threshold"] == 4.0
    point = payload["points"][0]
    assert set(point) == {"param", "analytic", "z", "seed", "outcome"}
    assert len(point["outcome"]["samples"]) == FAST["iterations"]
