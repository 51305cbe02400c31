"""Event-driven simulation of version propagation through a cache network.

Semantics: the source's version counter increments at each of its renewal
events; at each renewal of link (i, j) the sender's current version is copied
to the receiver if it is fresher (the receiver discards the staler one).
Packets carry the sender's state at the delivery instant, with zero
transmission delay.

Events at equal timestamps are processed in a fixed total order: the source
event first, then link events by (depth of sending node, link priority,
declaration index).  Ties occur with probability zero for continuous
inter-update times; the ordering matters only when deterministic links are in
play.

Two engines produce identical trajectories from identical seeds and are
cross-checked in the test suite:

* a lazy-merge event loop over per-stream cursors (any validated network,
  including general graphs with cycles among caches);
* a vectorized per-replication cascade for PATH/TREE networks, used by
  :func:`monte_carlo`, which evaluates each node's version step function from
  its parent's via inclusive binary search -- the searchsorted(side="right")
  convention realizes exactly the tie order above.
"""

from __future__ import annotations

import heapq
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnknownNode
from .network import CacheNetwork, NetworkClass
from .renewal import RenewalStream, event_times_until
from .rng import RngStream

__all__ = [
    "ReplicationResult",
    "SimOutcome",
    "simulate_once",
    "monte_carlo",
    "check_horizon",
    "ESTIMATORS",
]

ESTIMATORS = ("terminal", "time_average")

DEFAULT_HORIZON = 1e3
DEFAULT_ITERATIONS = 20_000
DEFAULT_SEED = 1

SOURCE_STREAM = ("source",)


def _link_stream(link) -> tuple:
    return ("link", link.src, link.dst)


@dataclass
class ReplicationResult:
    """Per-node version-age readings from one replication."""

    horizon: float
    terminal: dict[str, int]
    time_average: dict[str, float]
    versions: dict[str, int]
    source_version: int
    #: version step history per node (time, new version), returned on request
    steps: dict[str, list[tuple[float, int]]] | None = None


@dataclass
class SimOutcome:
    """Monte Carlo summary for one target node."""

    node: str
    estimator: str
    samples: np.ndarray
    mean: float
    stderr: float
    iterations: int
    horizon: float

    @classmethod
    def from_samples(cls, node, estimator, samples, horizon) -> "SimOutcome":
        samples = np.asarray(samples)
        n = samples.size
        stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(
            node=node,
            estimator=estimator,
            samples=samples,
            mean=float(samples.mean()),
            stderr=stderr,
            iterations=n,
            horizon=horizon,
        )

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "estimator": self.estimator,
            "mean": self.mean,
            "stderr": self.stderr,
            "iterations": self.iterations,
            "horizon": self.horizon,
            "samples": self.samples.tolist(),
        }


def check_horizon(horizon) -> None:
    """Reject any horizon but a positive finite number."""
    if not (isinstance(horizon, numbers.Real) and math.isfinite(horizon) and horizon > 0):
        raise InvalidParameter(f"horizon must be a positive finite number, got {horizon!r}")


def _window_integral(times: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the step function that equals values[k] on
    [times[k], times[k+1]); times must start at 0."""
    i = int(np.searchsorted(times, lo, side="right")) - 1
    j = int(np.searchsorted(times, hi, side="right")) - 1
    if i == j:
        return float(values[i]) * (hi - lo)
    knots = np.concatenate([[lo], times[i + 1 : j + 1], [hi]])
    return float(np.dot(values[i : j + 1], np.diff(knots)))


def simulate_once(
    network: CacheNetwork,
    horizon: float,
    master_seed: int,
    iteration: int = 0,
    record: bool = False,
    check_invariants: bool = False,
) -> ReplicationResult:
    """One replication via the event loop, exact for any validated network.

    Per-stream generators are keyed by (master_seed, iteration, stream id), so
    a replication is reproducible in isolation.  All caches start at version 0.
    """
    check_horizon(horizon)
    streams: list[RenewalStream] = [
        RenewalStream(
            network.source_dist,
            SOURCE_STREAM,
            RngStream(master_seed, iteration, *SOURCE_STREAM),
        )
    ]
    # rank orders simultaneous events: source first, then sender depth,
    # then priority, then declaration index
    ranks: list[tuple[int, int, int]] = [(-1, -1, -1)]
    receivers: list[str | None] = [None]
    senders: list[str | None] = [None]
    for idx, link in enumerate(network.links):
        sid = _link_stream(link)
        streams.append(
            RenewalStream(link.dist, sid, RngStream(master_seed, iteration, *sid))
        )
        ranks.append((network.depth[link.src], link.priority, idx))
        receivers.append(link.dst)
        senders.append(link.src)

    versions: dict[str, int] = {n: 0 for n in network.nodes}
    steps: dict[str, list[tuple[float, int]]] = {n: [] for n in network.nodes}

    heap = [(s.peek(), *ranks[i], i) for i, s in enumerate(streams)]
    heapq.heapify(heap)
    source = network.source
    while heap[0][0] <= horizon:
        t, _, _, _, i = heap[0]
        stream = streams[i]
        stream.pop()
        heapq.heapreplace(heap, (stream.peek(), *ranks[i], i))
        if i == 0:
            node, new_version = source, versions[source] + 1
        else:
            node = receivers[i]
            new_version = max(versions[node], versions[senders[i]])
            if check_invariants:
                assert versions[senders[i]] <= versions[source]
        if new_version != versions[node]:
            versions[node] = new_version
            steps[node].append((t, new_version))

    w0 = versions[source]
    lo = horizon / 2.0
    integrals = {
        n: _window_integral(*np.array([(0.0, 0), *steps[n]]).T, lo, horizon)
        for n in network.nodes
    }
    width = horizon - lo
    return ReplicationResult(
        horizon=horizon,
        terminal={n: w0 - versions[n] for n in network.nodes},
        time_average={
            n: (integrals[source] - integrals[n]) / width for n in network.nodes
        },
        versions=dict(versions),
        source_version=w0,
        steps=steps if record else None,
    )


# -- vectorized PATH/TREE engine ------------------------------------------------


class _TreeReplicator:
    """Reusable per-replication evaluator for PATH/TREE networks.

    Draws the same gap sequences as the event loop (same streams, same
    batching) and composes version step functions down the tree; inclusive
    searchsorted reproduces the event loop's simultaneous-event order.
    """

    def __init__(self, network: CacheNetwork, targets: list[str], horizon: float):
        self.network = network
        self.horizon = horizon
        needed: set[str] = set()
        for t in targets:
            for link in network.path_to_source(t):
                needed.add(link.dst)
        self.targets = list(targets)
        # parents before children
        self.order = [n for n in network.topo_order() if n in needed]
        self.links = {n: network.parent_link(n) for n in self.order}
        self._rng = RngStream(0)

    def run(self, master_seed: int, iteration: int) -> tuple[dict[str, int], dict[str, float]]:
        net, horizon, rng = self.network, self.horizon, self._rng
        rng.reseed(master_seed, iteration, *SOURCE_STREAM)
        src_events = event_times_until(net.source_dist, rng, horizon)
        w0 = int(np.searchsorted(src_events, horizon, side="right"))

        step_times = {
            net.source: np.concatenate([[0.0], src_events[:w0]])
        }
        step_values = {
            net.source: np.arange(w0 + 1, dtype=np.float64)
        }
        for node in self.order:
            link = self.links[node]
            sid = _link_stream(link)
            rng.reseed(master_seed, iteration, *sid)
            deliveries = event_times_until(link.dist, rng, horizon)
            deliveries = deliveries[: int(np.searchsorted(deliveries, horizon, side="right"))]
            p_times, p_values = step_times[link.src], step_values[link.src]
            carried = p_values[np.searchsorted(p_times, deliveries, side="right") - 1]
            step_times[node] = np.concatenate([[0.0], deliveries])
            step_values[node] = np.concatenate([[0.0], carried])

        lo = horizon / 2.0
        width = horizon - lo
        src_integral = _window_integral(
            step_times[net.source], step_values[net.source], lo, horizon
        )
        terminal: dict[str, int] = {}
        time_average: dict[str, float] = {}
        for t in self.targets:
            if t == net.source:
                terminal[t] = 0
                time_average[t] = 0.0
                continue
            tv, vv = step_times[t], step_values[t]
            w_t = vv[int(np.searchsorted(tv, horizon, side="right")) - 1]
            terminal[t] = int(w0 - w_t)
            time_average[t] = (src_integral - _window_integral(tv, vv, lo, horizon)) / width
        return terminal, time_average


def _run_iteration_block(args) -> list[tuple]:
    """Worker: replications [start, stop) in iteration order."""
    network, targets, horizon, master_seed, start, stop, use_tree = args
    out = []
    if use_tree:
        rep = _TreeReplicator(network, targets, horizon)
        for it in range(start, stop):
            terminal, time_avg = rep.run(master_seed, it)
            out.append((terminal, time_avg))
    else:
        for it in range(start, stop):
            r = simulate_once(network, horizon, master_seed, iteration=it)
            out.append((r.terminal, r.time_average))
    return out


def monte_carlo(
    network: CacheNetwork,
    targets=None,
    horizon: float = DEFAULT_HORIZON,
    iterations: int = DEFAULT_ITERATIONS,
    master_seed: int = DEFAULT_SEED,
    estimator: str = "terminal",
    threads: int = 1,
) -> dict[str, SimOutcome]:
    """Independent replications; returns one :class:`SimOutcome` per target.

    Replication ``i`` draws every stream from generators keyed by
    (master_seed, i, stream id) and results are aggregated in iteration
    order, so the output is bit-identical for a fixed master_seed no matter
    how the work is scheduled; ``threads`` affects speed only.
    """
    if estimator not in ESTIMATORS:
        raise InvalidParameter(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if iterations < 1:
        raise InvalidParameter(f"iterations must be >= 1, got {iterations}")
    check_horizon(horizon)
    if targets is None:
        targets = network.leaves()
        if not targets:
            raise InvalidParameter(
                "no targets given and the network has no leaves (every cache "
                "forwards to another); name the targets"
            )
    targets = list(targets)
    unknown = [t for t in targets if t not in network.nodes]
    if unknown:
        raise UnknownNode(f"targets not in network: {unknown}")

    use_tree = network.classification is not NetworkClass.GENERAL
    threads = max(1, int(threads))
    if threads == 1:
        blocks = [_run_iteration_block((network, targets, horizon, master_seed, 0, iterations, use_tree))]
    else:
        step = -(-iterations // threads)
        spans = [(s, min(s + step, iterations)) for s in range(0, iterations, step)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            blocks = list(
                pool.map(
                    _run_iteration_block,
                    [
                        (network, targets, horizon, master_seed, a, b, use_tree)
                        for a, b in spans
                    ],
                )
            )

    pick = 0 if estimator == "terminal" else 1
    dtype = np.int64 if estimator == "terminal" else np.float64
    outcomes: dict[str, SimOutcome] = {}
    for t in targets:
        samples = np.fromiter(
            (row[pick][t] for block in blocks for row in block),
            dtype=dtype,
            count=iterations,
        )
        outcomes[t] = SimOutcome.from_samples(t, estimator, samples, horizon)
    return outcomes
