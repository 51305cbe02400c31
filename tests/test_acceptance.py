"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs the three full-scale comparison studies (desk scale: 2e4 iterations,
horizon 1e3), the Poisson cross-check, the limit-theorem battery, the exact
deterministic traces, the moment oracle, and the determinism contract.
Statistical gates are 4-sigma; fitted-line gates use the stated percentage
tolerances.  Total runtime is a few minutes.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

from versionage import (
    Beta,
    CacheNetwork,
    ChiSquare,
    Deterministic,
    Exponential,
    ParetoI,
    Rayleigh,
    RngStream,
    Uniform,
    expected_version_age,
    expected_version_age_poisson,
    monte_carlo,
    simulate_once,
    sweep_study,
    verify_renewal_limits,
    verify_windowed_count_limit,
)
from versionage.cli import run

HORIZON = 1e3
ITERATIONS = 20_000
#: criteria 1-5 use every core; outputs never depend on the thread count
THREADS = os.cpu_count() or 1
THREE_LINK_SUM_4DP = 2.5479  # rayleigh(1) + chi_square(1) + beta(2,3) contributions, rounded

NON_DETERMINISTIC = (
    Exponential(rate=1.0),
    Uniform(lo=0.0, hi=2.0),
    Rayleigh(sigma=1.0),
    ChiSquare(k=1),
    Beta(alpha=2.0, beta=3.0),
    ParetoI(shape=3.0, scale=1.0 / 3.0),
)


def report(number, description, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"\n[criterion {number}] {status} - {description}")
    assert not violations, f"criterion {number}: {violations}"


def test_criterion_1_source_mean_reproduction():
    sweep = sweep_study(
        "fig5",
        (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
        iterations=ITERATIONS,
        horizon=HORIZON,
        seed=101,
        estimator="terminal",
        threads=THREADS,
    )
    violations = []
    for p in sweep.points:
        mu0 = 1.5 * p.param
        target = THREE_LINK_SUM_4DP / mu0
        if abs(p.outcome.mean - target) > 4.0 * p.outcome.stderr:
            violations.append(f"m={p.param:.4g}: mc={p.outcome.mean:.4f} target={target:.4f}")
    report(1, "3-hop chain matches 2.5479/source_mean at 4 sigma for all m", violations)


def test_criterion_2_hop_count_reproduction():
    sweep = sweep_study(
        "fig6",
        (1, 2, 3, 4, 5, 6),
        iterations=ITERATIONS,
        horizon=HORIZON,
        seed=102,
        estimator="time_average",
        threads=THREADS,
    )
    violations = []
    for p in sweep.points:
        target = (4.0 / 3.0) * p.param
        if abs(p.outcome.mean - target) > 4.0 * p.outcome.stderr:
            violations.append(f"n={p.param}: mc={p.outcome.mean:.4f} target={target:.4f}")
    if abs(sweep.slope - 4.0 / 3.0) > 0.02 * (4.0 / 3.0):
        violations.append(f"slope {sweep.slope:.5f} off (4/3) by more than 2%")
    report(2, "n-hop uniform chain follows (4/3) n; slope within 2%", violations)


def test_criterion_3_link_variance_reproduction():
    sweep = sweep_study(
        "fig7",
        (0.05, 0.15, 0.25, 1.0 / 3.0),
        iterations=ITERATIONS,
        horizon=HORIZON,
        seed=103,
        estimator="time_average",
        threads=THREADS,
    )
    violations = []
    for p in sweep.points:
        target = 4.0 * p.param + 4.0
        if abs(p.outcome.mean - target) > 4.0 * p.outcome.stderr:
            violations.append(f"v={p.param:.4g}: mc={p.outcome.mean:.4f} target={target:.4f}")
    if abs(sweep.slope - 4.0) > 0.05 * 4.0:
        violations.append(f"slope {sweep.slope:.5f} off 4 by more than 5%")
    if abs(sweep.intercept - 4.0) > 0.02 * 4.0:
        violations.append(f"intercept {sweep.intercept:.5f} off 4 by more than 2%")
    report(3, "4-hop variance family follows 4v+4; slope 5%, intercept 2%", violations)


def test_criterion_4_poisson_cross_check():
    rng = RngStream(104, "tuples")
    tuples = []
    for _ in range(20):
        n_links = 1 + int(rng.uniforms(1)[0] * 5)
        rate_s = 0.5 + 2.0 * rng.uniforms(1)[0]
        rates = [0.5 + 2.0 * rng.uniforms(1)[0] for _ in range(n_links)]
        tuples.append((rate_s, rates))

    violations = []
    for rate_s, rates in tuples:
        closed = expected_version_age_poisson(rate_s, rates)
        names = ["s"] + [f"n{i}" for i in range(1, len(rates) + 1)]
        net = CacheNetwork(
            nodes=names, source="s", source_dist=Exponential(rate=rate_s),
            links=[(names[i], names[i + 1], Exponential(rate=r)) for i, r in enumerate(rates)],
        )
        engine = expected_version_age(net).per_node[names[-1]]
        if abs(engine - closed) > 1e-12 * abs(closed):
            violations.append(f"rates {rate_s:.3f}/{rates}: {engine!r} vs {closed!r}")

    simulated = [t for t in tuples if len(t[1]) <= 3][:3]
    for rate_s, rates in simulated:
        names = ["s"] + [f"n{i}" for i in range(1, len(rates) + 1)]
        net = CacheNetwork(
            nodes=names, source="s", source_dist=Exponential(rate=rate_s),
            links=[(names[i], names[i + 1], Exponential(rate=r)) for i, r in enumerate(rates)],
        )
        target = expected_version_age_poisson(rate_s, rates)
        out = monte_carlo(net, targets=[names[-1]], horizon=HORIZON, iterations=10_000,
                          master_seed=1040, estimator="time_average", threads=THREADS)[names[-1]]
        if abs(out.mean - target) > 4.0 * out.stderr:
            violations.append(
                f"simulated rates {rate_s:.3f}/{rates}: mc={out.mean:.4f} target={target:.4f}"
            )
    report(4, "Poisson closed form matches engine to 1e-12 and simulation at 4 sigma",
           violations)


def test_criterion_5_limit_theorem_suite():
    paths = 100_000
    violations = []
    for spec in NON_DETERMINISTIC + (Deterministic(c=1.0),):
        # one law's martingale and recurrence checks read the same paths
        t_grid = [10.0, 100.0] if spec in NON_DETERMINISTIC else []
        points, check = verify_renewal_limits(spec, t_grid, 150.0, paths, master_seed=106, threads=THREADS)
        for point in points:
            if abs(point.z) >= 4.0:
                violations.append(f"martingale {spec} t={point.t}: z={point.z:+.2f}")
        if abs(check.z) >= 4.0:
            violations.append(f"recurrence {spec}: z={check.z:+.2f}")
    pairs = (
        (Exponential(rate=2.0), Exponential(rate=1.0)),
        (Exponential(rate=1.0), Uniform(lo=0.0, hi=2.0)),
        (Exponential(rate=1.0), Deterministic(c=1.0)),
    )
    for source_spec, probe_spec in pairs:
        check = verify_windowed_count_limit(source_spec, probe_spec, 150.0, paths,
                                            master_seed=107, threads=THREADS)
        if abs(check.z) >= 4.0:
            violations.append(f"windowed {source_spec}|{probe_spec}: z={check.z:+.2f}")
    report(5, "martingale, recurrence-limit, and windowed-count checks all inside 4 sigma",
           violations)


def test_criterion_6_exact_deterministic_traces():
    D = Deterministic
    violations = []

    def expect(label, got, want):
        if got != want:
            violations.append(f"{label}: {got!r} != {want!r}")

    def replicate(label, net, horizon):
        # the event loop's replication; monte_carlo, run for that one
        # iteration, must read the same at every node under both estimators
        r = simulate_once(net, horizon, master_seed=1)
        for estimator in ("terminal", "time_average"):
            out = monte_carlo(net, targets=list(net.nodes), horizon=horizon, iterations=1,
                              master_seed=1, estimator=estimator)
            expect(f"{label} monte_carlo {estimator}",
                   {n: oc.samples[0].item() for n, oc in out.items()}, getattr(r, estimator))
        return r

    # 1-hop, gaps 1 and 1.3, sampled at 3.5
    net = CacheNetwork(nodes=["s", "u"], source="s", source_dist=D(c=1.0),
                       links=[("s", "u", D(c=1.3))])
    r = replicate("one-hop", net, 3.5)
    expect("one-hop steps", r.steps["u"], [(1.3, 1), (2.6, 2)])
    expect("one-hop age", r.terminal["u"], 1)

    # synchronized source and link: age pinned at zero
    net = CacheNetwork(nodes=["s", "u"], source="s", source_dist=D(c=1.0),
                       links=[("s", "u", D(c=1.0))])
    r = replicate("tied", net, 3.0)
    expect("tied steps", r.steps["u"], [(1.0, 1), (2.0, 2), (3.0, 3)])
    expect("tied age", r.terminal["u"], 0)

    # 2-hop dyadic chain
    net = CacheNetwork(nodes=["s", "a", "b"], source="s", source_dist=D(c=0.5),
                       links=[("s", "a", D(c=0.75)), ("a", "b", D(c=1.25))])
    r = replicate("two-hop", net, 4.0)
    expect("two-hop a", r.steps["a"], [(0.75, 1), (1.5, 3), (2.25, 4), (3.0, 6), (3.75, 7)])
    expect("two-hop b", r.steps["b"], [(1.25, 1), (2.5, 4), (3.75, 7)])
    expect("two-hop age", r.terminal["b"], 1)

    # diamond with staggered feeds: the freshest of two carriers wins
    net = CacheNetwork(
        nodes=["s", "a", "b", "c"], source="s", source_dist=D(c=0.5),
        links=[("s", "a", D(c=1.0)), ("s", "b", D(c=1.5)),
               ("a", "c", D(c=2.0)), ("b", "c", D(c=2.25))],
    )
    r = replicate("diamond", net, 9.75)
    expect("diamond c", r.steps["c"],
           [(2.0, 4), (4.0, 8), (4.5, 9), (6.0, 12), (8.0, 16), (9.0, 18)])
    expect("diamond age", r.terminal["c"], 1)

    # multicast tree, three leaves
    net = CacheNetwork(
        nodes=["s", "a", "b", "c", "d"], source="s", source_dist=D(c=0.25),
        links=[("s", "a", D(c=0.5)), ("a", "b", D(c=1.0)),
               ("a", "c", D(c=1.5)), ("s", "d", D(c=2.0))],
    )
    r = replicate("multicast", net, 4.8)
    expect("multicast b", r.steps["b"], [(1.0, 4), (2.0, 8), (3.0, 12), (4.0, 16)])
    expect("multicast c", r.steps["c"], [(1.5, 6), (3.0, 12), (4.5, 18)])
    expect("multicast d", r.steps["d"], [(2.0, 8), (4.0, 16)])
    expect("multicast ages", r.terminal, {"s": 0, "a": 1, "b": 3, "c": 1, "d": 3})

    report(6, "five hand-computed deterministic schedules match exactly", violations)


def test_criterion_7_moment_oracle(scipy_law):
    specs = [
        Exponential(rate=1.0), Exponential(rate=2.0),
        Uniform(lo=0.0, hi=2.0), Uniform(lo=0.5, hi=3.0),
        Rayleigh(sigma=1.0), Rayleigh(sigma=0.4),
        ChiSquare(k=1), ChiSquare(k=4),
        Beta(alpha=2.0, beta=3.0), Beta(alpha=0.8, beta=2.0),
        ParetoI(shape=3.0, scale=1.0 / 3.0), ParetoI(shape=4.5, scale=2.0),
    ]
    violations = []
    for spec in specs:
        m = spec.moments()
        pdf = scipy_law(spec).pdf
        hi = 1.0 if isinstance(spec, Beta) else np.inf
        lo = spec.scale if isinstance(spec, ParetoI) else 0.0
        mean_q, _ = integrate.quad(lambda x: x * pdf(x), lo, hi, limit=400)
        second_q, _ = integrate.quad(lambda x: x * x * pdf(x), lo, hi, limit=400)
        if abs(mean_q - m.mean) > 1e-9 * m.mean:
            violations.append(f"{spec} mean {m.mean!r} vs quadrature {mean_q!r}")
        if abs(second_q - m.second_moment) > 1e-9 * m.second_moment:
            violations.append(f"{spec} second {m.second_moment!r} vs quadrature {second_q!r}")
    report(7, "closed-form moments match adaptive quadrature to 1e-9 relative", violations)


def test_criterion_8_determinism_across_threads(tmp_path):
    config = {
        "nodes": ["s", "a", "b"],
        "source": "s",
        "source_dist": {"type": "pareto1", "shape": 3.0, "scale": 0.5},
        "links": [
            {"from": "s", "to": "a", "dist": {"type": "uniform", "lo": 0, "hi": 2}},
            {"from": "a", "to": "b", "dist": {"type": "beta", "alpha": 2, "beta": 3}},
        ],
        "horizon": 80.0,
        "iterations": 400,
        "master_seed": 108,
    }
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(json.dumps(config))
    violations = []

    outputs = {}
    for threads in (1, 2, 4):
        base = str(tmp_path / f"sim_t{threads}")
        code = run(["simulate", str(cfg_path), "--out", base, "--threads", str(threads)])
        if code != 0:
            violations.append(f"simulate --threads {threads} exited {code}")
        outputs[threads] = (
            open(base + ".csv", "rb").read(), open(base + ".json", "rb").read()
        )
    if not (outputs[1] == outputs[2] == outputs[4]):
        violations.append("simulate outputs differ across --threads")

    sweeps = {}
    for threads in (1, 2):
        base = str(tmp_path / f"sweep_t{threads}")
        code = run(["sweep", "fig6", "--values", "1,2", "--iterations", "300",
                    "--horizon", "100", "--seed", "108", "--threads", str(threads),
                    "--out", base])
        if code != 0:
            violations.append(f"sweep --threads {threads} exited {code}")
        sweeps[threads] = (
            open(base + ".csv", "rb").read(), open(base + ".json", "rb").read()
        )
    if sweeps[1] != sweeps[2]:
        violations.append("sweep outputs differ across --threads")

    report(8, "simulate and sweep outputs are byte-identical across --threads", violations)
