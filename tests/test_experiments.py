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
from versionage.experiments import CSV_HEADER
from versionage.renewal import z_score
from versionage.rng import derive_seed
from versionage.simulator import MAX_SWEEP_VALUES, SimOutcome

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
    with pytest.raises(InvalidParameter, match="hop count must lie in"):
        sweep_study("fig6", (1, 2, MAX_SWEEP_VALUES + 1), **FAST)
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
    # nested fig6 points are one run at point 0's seed; fig7's links change
    # law from point to point, so each of its points runs at its own seed
    sweep = sweep_study("fig6", (1, 2), **FAST)
    assert sweep.points[0].seed == sweep.points[1].seed == derive_seed(FAST["seed"], "sweep", "hop_count", 0)
    other = sweep_study("fig7", (0.05, 0.15), **FAST)
    assert other.points[0].seed != other.points[1].seed
    assert other.points[0].seed != sweep.points[0].seed


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


def test_sweeps_that_do_not_nest_run_each_point_at_its_own_seed():
    def chain(n, first=None, rate=1.0):
        # an n-hop chain of uniform(0, 2) links but for the first's law
        nodes = ["s"] + [f"n{i}" for i in range(1, n + 1)]
        laws = [first or Uniform(lo=0.0, hi=2.0)] + [Uniform(lo=0.0, hi=2.0)] * (n - 1)
        return CacheNetwork(nodes=nodes, source="s", source_dist=Exponential(rate=rate),
                            links=list(zip(nodes, nodes[1:], laws)))

    # each value's chain has its own leaf, but the first link's law or the
    # source's law is not the longest chain's; or every value has one chain
    first_link = lambda n: chain(n, first=Uniform(lo=0.0, hi=float(n)))
    source = lambda n: chain(n, rate=float(n))
    constant = lambda n: chain(2)
    for sweep in (
        sweep_study("fig5", (1.0 / 3.0, 2.0 / 3.0), **FAST),
        sweep_study("fig7", (0.05, 0.15), **FAST),
        sweep_network_family("first_link", (1, 2, 3), first_link, **FAST),
        sweep_network_family("source", (1, 2, 3), source, **FAST),
        sweep_network_family("constant", (1, 2, 3), constant, **FAST),
    ):
        seeds = [p.seed for p in sweep.points]
        assert seeds == [derive_seed(FAST["seed"], "sweep", sweep.kind, i) for i in range(len(seeds))]
    # the same chains with one law throughout nest
    nested = sweep_network_family("nested", (1, 2, 3), chain, **FAST)
    assert {p.seed for p in nested.points} == {derive_seed(FAST["seed"], "sweep", "nested", 0)}


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
