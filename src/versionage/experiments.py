"""Parameter sweeps comparing the closed form against Monte Carlo.

Three built-in studies (:data:`STUDIES`, keyed by the CLI kinds fig5, fig6
and fig7), each a family of chains:

* ``source_mean``: 3-hop chain rayleigh(1) / chi_square(1) / beta(2, 3) with a
  pareto1(3, m) source, swept over the scale m.  The predicted end-node age is
  (sum of the three link contributions) / source mean, inversely proportional
  to the source's mean update interval.
* ``hop_count``: n-hop chains of uniform(0, 2) links, pareto1(3, 1/3) source;
  the prediction grows linearly, (4/3) n.
* ``link_variance``: 4-hop chains of mean-1 uniform links whose variance v is
  swept; prediction 4 v + 4, linear in the common link variance.

Every point records the analytic value, the Monte Carlo mean, its standard
error, and the z-score of their difference.  A sweep passes its statistical
gate when at most 1 point in 20 lands beyond 4 sigma.  Runs are reproducible:
a sweep is one run of the engine at the seed derived from (master seed, kind,
0), so equal seeds give byte-identical CSV output.  Successive points whose
networks nest one in the other share one replicator, their largest network
with each of their leaves a target (fig6's hop counts are one group), and a
block draws each stream that groups share (fig5's links, fig7's source) once.
Each point reads the samples of its own single-value run at that seed, and
the points are correlated.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .analytic import expected_version_age
from .distributions import Beta, ChiSquare, ParetoI, Rayleigh, Uniform, whole_number
from .errors import InvalidParameter
from .network import CacheNetwork
from .renewal import Z_GATE, z_score
from .rng import check_seed, derive_seed
from .simulator import DEFAULT_ESTIMATOR, DEFAULT_HORIZON, DEFAULT_ITERATIONS, DEFAULT_SEED
from .simulator import SimOutcome, _replicate, _Replicator, check_run, check_samples, monte_carlo

__all__ = [
    "CSV_HEADER",
    "SweepPoint",
    "ExperimentSweep",
    "fig5_network",
    "fig6_network",
    "fig7_network",
    "STUDIES",
    "sweep_study",
    "sweep_network_family",
]

CSV_HEADER = "sweep_kind,param,analytic,mc_mean,mc_stderr,z,iterations,horizon,seed"

#: most values in a sweep or value list, and hops in a fig6 chain: all are built first
MAX_SWEEP_VALUES = 10_000


@dataclass
class SweepPoint:
    param: float
    analytic: float
    outcome: SimOutcome
    seed: int

    @property
    def z(self) -> float:
        return z_score(self.outcome.mean, self.analytic, self.outcome.stderr)


@dataclass
class ExperimentSweep:
    kind: str
    points: list[SweepPoint]
    estimator: str
    master_seed: int
    slope: float | None = None
    intercept: float | None = None

    @property
    def n_exceeding(self) -> int:
        return sum(1 for p in self.points if abs(p.z) > Z_GATE)

    @property
    def passed(self) -> bool:
        allowed = max(1, len(self.points) // 20)
        return self.n_exceeding <= allowed

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for p in self.points:
            floats = (p.param, p.analytic, p.outcome.mean, p.outcome.stderr, p.z)
            writer.writerow([self.kind, *(repr(float(x)) for x in floats), p.outcome.iterations,
                             repr(float(p.outcome.horizon)), p.seed])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "estimator": self.estimator,
            "master_seed": self.master_seed,
            "fit": {"slope": self.slope, "intercept": self.intercept},
            "gate": {
                "z_threshold": Z_GATE,
                "n_exceeding": self.n_exceeding,
                "passed": self.passed,
            },
            "points": [
                {
                    "param": float(p.param),
                    "analytic": float(p.analytic),
                    "z": float(p.z),
                    "seed": p.seed,
                    "outcome": p.outcome.to_dict(),
                }
                for p in self.points
            ],
        }


def fig5_network(m: float) -> CacheNetwork:
    """3-hop chain rayleigh(1)/chi_square(1)/beta(2,3), pareto1(3, m) source."""
    return CacheNetwork(
        nodes=["src", "n1", "n2", "n3"],
        source="src",
        source_dist=ParetoI(shape=3.0, scale=m),
        links=[
            ("src", "n1", Rayleigh(sigma=1.0)),
            ("n1", "n2", ChiSquare(k=1)),
            ("n2", "n3", Beta(alpha=2.0, beta=3.0)),
        ],
    )


def fig6_network(n: int) -> CacheNetwork:
    """n-hop chain of uniform(0, 2) links with a pareto1(3, 1/3) source.

    n = 0 is the degenerate source-only network (age identically zero); n may
    be an integral float such as 3.0, but not a fraction.
    """
    n = whole_number("hop count", n)
    if not 0 <= n <= MAX_SWEEP_VALUES:
        raise InvalidParameter(f"hop count must lie in 0..{MAX_SWEEP_VALUES}, got {n}")
    nodes = ["src"] + [f"n{i}" for i in range(1, n + 1)]
    link = Uniform(lo=0.0, hi=2.0)
    links = [(nodes[i], nodes[i + 1], link) for i in range(n)]
    return CacheNetwork(
        nodes=nodes, source="src", source_dist=ParetoI(shape=3.0, scale=1.0 / 3.0), links=links
    )


def fig7_network(v: float) -> CacheNetwork:
    """4-hop chain of mean-1 uniform links with variance v, 0 < v <= 1/3."""
    if not 0.0 < v <= 1.0 / 3.0:
        raise InvalidParameter(
            f"link variance must lie in (0, 1/3] to keep the support nonnegative, got {v}"
        )
    half_width = math.sqrt(3.0 * v)
    dist = Uniform(lo=1.0 - half_width, hi=1.0 + half_width)
    nodes = ["src", "n1", "n2", "n3", "n4"]
    links = [(nodes[i], nodes[i + 1], dist) for i in range(4)]
    return CacheNetwork(
        nodes=nodes, source="src", source_dist=ParetoI(shape=3.0, scale=1.0 / 3.0), links=links
    )


def _sweep_values(values) -> list:
    """``values`` as a list: at most :data:`MAX_SWEEP_VALUES`, strictly monotone."""
    values = list(itertools.islice(values, MAX_SWEEP_VALUES + 1))
    if len(values) > MAX_SWEEP_VALUES:
        raise InvalidParameter(f"a sweep takes at most {MAX_SWEEP_VALUES} values")
    if len(values) >= 2:
        diffs = np.diff(np.asarray(values, dtype=float))
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise InvalidParameter(f"sweep values must be strictly monotone, got {values}")
    return values


def _deepest_leaf(network: CacheNetwork) -> str:
    leaves = network.leaves()
    return max(leaves, key=lambda n: network.depth[n]) if leaves else network.source


def _nests(network: CacheNetwork, big: CacheNetwork) -> bool:
    """Whether ``big`` draws, for every node of ``network``, the streams that
    ``network`` draws: the same source and source law, and each node fed by
    the same links (ids and laws) in both."""
    return (
        network.source == big.source
        and network.source_dist == big.source_dist
        and all(n in big.depth and network.incoming(n) == big.incoming(n) for n in network.nodes)
    )


def sweep_network_family(
    kind: str,
    values,
    make_network,
    iterations: int = DEFAULT_ITERATIONS,
    horizon: float = DEFAULT_HORIZON,
    seed: int = DEFAULT_SEED,
    estimator: str = DEFAULT_ESTIMATOR,
    threads: int = 1,
    fit: bool = False,
) -> ExperimentSweep:
    """Run one comparison point per value over a family of paths or trees.

    The target is the deepest leaf; the analytic column comes straight from
    :func:`expected_version_age` on each point's network.  Every point runs
    at one seed, derived from (seed, kind, 0), and the sweep is one run of
    the engine.  Points are grouped in order: a point joins the last group
    when its network and the group's nest one in the other (see
    :func:`_nests`), and the group keeps the larger; otherwise it starts a
    new group.  Each group is one replicator with its points' targets (one
    group alone is :func:`monte_carlo`'s run), and a block draws the streams
    that groups share (the same stream id and law) once.  A target reads
    only its upstream streams, so each point's samples are those of its own
    single-value run at that seed, and the points are correlated.
    """
    check_seed(seed)
    if iterations < 2:
        raise InvalidParameter(
            f"a sweep needs iterations >= 2, got {iterations}: its z gate divides "
            "by the standard error, which a single replication does not give"
        )
    values = _sweep_values(values)
    check_samples(iterations, len(values), "points")
    # one pass builds each point's network, and so validates every value
    # before any point runs.  Nesting is transitive, so a point is checked
    # against its group's largest network alone.  A group's network is
    # dropped once its replicator is built: at most two networks are held.
    analytic, where, reps = [], [], []  # per point: its analytic value and (group, target)
    network, targets = None, {}  # the open group's largest network and its targets
    for value in values:
        point = make_network(value)
        target = _deepest_leaf(point)
        check_run(point, horizon, iterations, estimator, [target])
        analytic.append(expected_version_age(point).per_node[target])
        larger = network is None or len(point.nodes) > len(network.nodes)
        if network is not None and not (_nests(network, point) if larger else _nests(point, network)):
            reps.append(_Replicator(network, list(targets), horizon, estimator))
            network, targets, larger = None, {}, True
        if larger:
            network = point
        targets[target] = None
        where.append((len(reps), target))
    point_seed = derive_seed(seed, "sweep", kind, 0)
    run = dict(master_seed=point_seed, iterations=iterations, threads=threads)
    if reps:  # one run reads every group's replicator, the open last one's too
        reps.append(_Replicator(network, list(targets), horizon, estimator))
        outcomes = _replicate(reps, **run)
    else:  # one group: monte_carlo's own run, the span bench/spans.py times it by
        outcomes = [monte_carlo(network, list(targets), horizon=horizon, estimator=estimator, **run)]
    outcomes = [outcomes[g][t] for g, t in where]
    points = [SweepPoint(v, a, o, point_seed) for v, a, o in zip(values, analytic, outcomes)]
    sweep = ExperimentSweep(kind=kind, points=points, estimator=estimator, master_seed=seed)
    if fit and len(points) >= 2:
        xs = np.asarray([p.param for p in points], dtype=float)
        ys = np.asarray([p.outcome.mean for p in points], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        sweep.slope = float(slope)
        sweep.intercept = float(intercept)
    return sweep


class Study(NamedTuple):
    """A canned study: its sweep kind, network family, default values and
    whether a least-squares line is fitted to the Monte Carlo means."""

    kind: str
    make_network: Callable
    values: tuple
    fit: bool = False


#: the canned studies by CLI kind
STUDIES: dict[str, Study] = {
    "fig5": Study("source_mean", fig5_network, (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)),
    "fig6": Study("hop_count", fig6_network, (1, 2, 3, 4, 5, 6), fit=True),
    "fig7": Study("link_variance", fig7_network, (0.05, 0.15, 0.25, 1.0 / 3.0), fit=True),
}


def sweep_study(
    kind: str,
    values=None,
    iterations: int = DEFAULT_ITERATIONS,
    horizon: float = DEFAULT_HORIZON,
    seed: int = DEFAULT_SEED,
    estimator: str = DEFAULT_ESTIMATOR,
    threads: int = 1,
) -> ExperimentSweep:
    """Run the canned study ``kind`` (fig5|fig6|fig7) over ``values``, by
    default the study's own."""
    if kind not in STUDIES:
        raise InvalidParameter(f"unknown study {kind!r} (expected {'|'.join(STUDIES)})")
    study = STUDIES[kind]
    return sweep_network_family(
        study.kind,
        study.values if values is None else values,
        study.make_network,
        iterations=iterations,
        horizon=horizon,
        seed=seed,
        estimator=estimator,
        threads=threads,
        fit=study.fit,
    )
