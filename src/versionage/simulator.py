"""Simulation of version propagation through a cache network.

Semantics: the source's version counter increments at each of its renewal
events; at each renewal of link (i, j) the sender's current version is copied
to the receiver if it is fresher (the receiver discards the staler one).
Packets carry the sender's state at the delivery instant, with zero
transmission delay.

Events at equal times follow one rule: every delivery at time t carries its
sender's version after every event at t, as the renewal counts are
right-continuous (N(t) counts the renewals up to and including t).  So the
events of one instant settle to the least fixed point of keep-the-freshest,
whatever order the links are declared in.  Ties occur with probability zero
for the non-arithmetic inter-update times the closed form assumes; they
matter only with deterministic links or gaps that can be zero.

:func:`monte_carlo` runs one vectorized engine on any network.  It draws
each stream's event times up to the horizon, for the targets and every cache
upstream of them, and reads only what the requested estimator needs.  A
cache's version at t is the freshest of its feeds' senders' versions, each
read at that feed's last delivery at or before t; the source's is its count
of renewals up to t.  ``terminal`` reads the targets' versions at the
horizon on every graph from one best-first backward search over (node, time)
pairs, latest first, started from all the targets at once: the first source
pair a target reaches is the latest source time that any path of deliveries
carries to it, and the source's count there is its version.
``time_average`` integrates each target's versions at its knots (every
delivery it receives) over [horizon/2, horizon].  When every cache it draws
has one feed, the engine traces those versions back from the targets, as the
closed form does: each knot asks one binary search of its sender's events,
hop by hop up to the source, whose version at its q-th event is q.
Otherwise (a cache with several feeds, as on any cycle among caches) the
same search, started from every drawn cache at horizon/2, gives each its
version there, and each cache's step function over (horizon/2, horizon]
starts from it, merging a cache's feeds by time under a running maximum from
it.  Which sender knot each delivery reads depends on event times alone, so
it is found once per replication; a worklist then re-evaluates, shallowest
first, only the caches whose senders changed, until none did.  The operator
is monotone and starts below its fixed point, so this is its least fixed
point, the same one any order of evaluation reaches.

Streams come in blocks of :data:`BLOCK` replications: stream s of block b
is one generator keyed by (master seed, b, s), and replication BLOCK * b + j
reads row j of its :func:`_block_rows`, so a replication is a function of
(master seed, iteration) alone, whatever the run's length or worker count.
The rows are successive draws whose first gaps are one batch, read as one
array where every row passes the horizon within its share of the batch.
One run may read several replicators at one master seed (every point of a
sweep, see :func:`_replicate`): a block then draws each stream id and law
that they share once where it comes as one array, so every replicator reads
the rows of its own run at that seed, and their readings are correlated.

:func:`simulate_once` is the reference engine: a heap event loop over one
:class:`~versionage.renewal.RenewalStream` cursor per stream, which also
returns each node's step history.  Both engines integrate the same knots
(every delivery a node receives), so they agree bit for bit and are
cross-checked in the test suite.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .distributions import positive_number
from .errors import InvalidParameter, UnknownNode
from .network import CacheNetwork
from .renewal import _EVENT_BUDGET, RenewalStream, _check_event_budget, _first_rows, _workers, event_times_until
from .rng import RngStream, check_seed

__all__ = [
    "ReplicationResult",
    "SimOutcome",
    "simulate_once",
    "monte_carlo",
    "ESTIMATORS",
    "DEFAULT_ESTIMATOR",
    "check_run",
    "check_samples",
]

ESTIMATORS = ("terminal", "time_average")
DEFAULT_ESTIMATOR = "terminal"

DEFAULT_HORIZON = 1e3
DEFAULT_ITERATIONS = 20_000
DEFAULT_SEED = 1

#: most samples one run may keep: its replications times the targets each
#: one reads (a sweep: times its points)
_MAX_ITERATIONS = 10_000_000
#: most values one sweep or value list may hold, and most hops of a fig6
#: chain: every sweep point's network is built before the first draw
MAX_SWEEP_VALUES = 10_000

SOURCE_STREAM = ("source",)

#: replications per block: replication BLOCK * b + j reads row j of each
#: stream's :func:`_block_rows` in block b
BLOCK = 8


def _link_stream(link) -> tuple:
    return ("link", link.src, link.dst)


@dataclass
class ReplicationResult:
    """Per-node version-age readings from one replication."""

    terminal: dict[str, int]
    time_average: dict[str, float]
    #: version step history per node: (time, new version) at each change
    steps: dict[str, list[tuple[float, int]]]


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
        return {**vars(self), "samples": self.samples.tolist()}


def check_run(network: CacheNetwork, horizon, iterations: int, estimator: str, targets) -> None:
    """Reject run arguments before anything is drawn; ``targets`` None (none
    named yet) is left unchecked."""
    if estimator not in ESTIMATORS:
        raise InvalidParameter(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    if iterations < 1:
        raise InvalidParameter(f"iterations must be >= 1, got {iterations}")
    check_samples(iterations, 1, "target")
    positive_number("horizon", horizon)
    if targets is None:
        return
    if not targets:
        raise InvalidParameter(
            "no targets: the target list is empty, or none was given and the network "
            "has no leaves (every cache forwards to another); name the targets"
        )
    repeated = [t for t in dict.fromkeys(targets) if targets.count(t) > 1]
    if repeated:
        raise InvalidParameter(f"targets name {repeated} more than once")
    unknown = [t for t in targets if t not in network.depth]
    if unknown:
        raise UnknownNode(f"targets reference undeclared nodes {unknown}")
    check_samples(iterations, len(targets), "targets")


def check_samples(iterations: int, count: int, what: str) -> None:
    """Reject a run that would keep more than :data:`_MAX_ITERATIONS`
    samples: ``iterations`` replications, each read at ``count`` ``what``."""
    if iterations > _MAX_ITERATIONS:
        raise InvalidParameter(
            f"iterations must be at most {_MAX_ITERATIONS:.3g}: every replication is kept as a sample"
        )
    if iterations * count > _MAX_ITERATIONS:
        raise InvalidParameter(
            f"{iterations} iterations x {count} {what} must be at most {_MAX_ITERATIONS:.3g}: "
            "every replication's reading of each is kept as a sample"
        )


def _check_streams(horizon: float, streams) -> None:
    """Reject a run in which some stream, given as (stream id, law), would
    draw too many events; a mean that underflows to 0 draws without end."""
    for sid, dist in streams:
        name = "source" if sid == SOURCE_STREAM else f"link {sid[1]}->{sid[2]}"
        mean = dist.moments().mean
        _check_event_budget(horizon / mean if mean else math.inf, "stream", name)


def _block_rows(dist, rng: RngStream, horizon: float, master_seed: int, block: int, sid: tuple, whole=True):
    """Stream ``sid``'s event times in ``block``, one row per replication:
    BLOCK successive event_times_until draws at the horizon from ``rng``
    reseeded to (master_seed, block, stream id), made as read, whose first
    BLOCK * R gaps (R = :func:`_first_rows` at the horizon) are one batch
    where that fits :data:`_EVENT_BUDGET`; that changes no bit of them but
    for a beta with a whole b, whose sampler draws factor by factor.  With
    ``whole``, if every row passes the horizon within its R gaps, they are
    one array, the batch summed along rows of R."""
    rng.reseed(master_seed, block, *sid)
    width = _first_rows(dist, horizon)
    fits = BLOCK * width <= _EVENT_BUDGET
    if whole and fits:
        rows = dist.sample_batch(rng, BLOCK * width).reshape(BLOCK, width)
        np.add.accumulate(rows, axis=1, out=rows)
        if (rows[:, -1] > horizon).all():
            return rows
        rng.reseed(master_seed, block, *sid)  # the batch again, as the draws' head
    head = [dist.sample_batch(rng, BLOCK * width)] if fits else []
    return (event_times_until(dist, rng, horizon, head) for _ in range(BLOCK))


def _window_integral(
    knot_times: np.ndarray, values: np.ndarray, i: int, j: int, lo: float, hi: float
) -> float:
    """Integral over [lo, hi] of a step function with knot 0 at time 0 and
    knot q at knot_times[q - 1]; i and j are the knots in effect at lo and
    hi, and ``values`` (float64) holds the function's values at knots i..j."""
    if i == j:
        return float(values[0]) * (hi - lo)
    knots = np.concatenate([[lo], knot_times[i:j], [hi]])
    return float(np.dot(values, knots[1:] - knots[:-1]))


def simulate_once(
    network: CacheNetwork,
    horizon: float,
    master_seed: int,
    iteration: int = 0,
) -> ReplicationResult:
    """One replication via the event loop, exact for any validated network.

    Each stream is drawn as :func:`monte_carlo` draws it: replication
    ``iteration`` = BLOCK * b + j steps through row j of the stream's
    :func:`_block_rows` in block b, so a replication is reproducible in
    isolation.  It reads the draws, never their one-array form, so it checks
    that form, and draws rows 0..j - 1 off the block's batch too, since row j
    starts where they end.  All caches start at version 0.
    Each instant's events are popped together: the source's renewals count,
    then the deliveries repeat until no version moves.
    """
    positive_number("horizon", horizon)
    links = network.links
    laws = [(SOURCE_STREAM, network.source_dist)] + [(_link_stream(l), l.dist) for l in links]
    _check_streams(horizon, laws)
    block, row = divmod(iteration, BLOCK)
    rng = RngStream(check_seed(master_seed))  # each stream's block reseeds it
    streams = [RenewalStream(next(islice(_block_rows(dist, rng, horizon, master_seed, block, sid, whole=False),
                                         row, None))) for sid, dist in laws]
    source = network.source
    # stream i moves node receivers[i]: stream 0 the source, the others links
    receivers = [source] + [link.dst for link in links]
    senders = [None] + [link.src for link in links]

    versions: dict[str, int] = {n: 0 for n in network.nodes}
    steps: dict[str, list[tuple[float, int]]] = {n: [] for n in network.nodes}
    # every delivery a node receives and its version after it: the knots
    # the time average integrates, the same ones the vectorized engine keeps
    knot_times: dict[str, list[float]] = {n: [] for n in network.nodes}
    knot_values: dict[str, list[int]] = {n: [] for n in network.nodes}

    heap = [(s.peek(), i) for i, s in enumerate(streams)]
    heapq.heapify(heap)
    while heap[0][0] <= horizon:
        # every event at instant t; the source's pop first, as its index is 0
        t = heap[0][0]
        fired = []
        while heap[0][0] == t:
            i = heap[0][1]
            streams[i].pop()
            heapq.heapreplace(heap, (streams[i].peek(), i))
            fired.append(i)
        changed = set()
        renewals = fired.count(0)
        if renewals:
            versions[source] += renewals
            changed.add(source)
        # the deliveries repeat until no version moves; one pass settles a
        # lone delivery, as no link feeds its own sender
        deliveries = fired[renewals:]
        moved = True
        while moved:
            moved = False
            for i in deliveries:
                if versions[senders[i]] > versions[receivers[i]]:
                    versions[receivers[i]] = versions[senders[i]]
                    changed.add(receivers[i])
                    moved = len(deliveries) > 1
        for node in changed:
            steps[node].append((t, versions[node]))
        for i in fired:
            knot_times[receivers[i]].append(t)
            knot_values[receivers[i]].append(versions[receivers[i]])

    w0 = versions[source]
    lo = horizon / 2.0
    integrals = {}
    for n in network.nodes:
        times = np.array(knot_times[n])
        i = int(np.searchsorted(times, lo, side="right"))
        values = np.array([0.0, *knot_values[n]])[i:]
        integrals[n] = _window_integral(times, values, i, times.size, lo, horizon)
    width = horizon - lo
    return ReplicationResult(
        terminal={n: w0 - versions[n] for n in network.nodes},
        time_average={
            n: (integrals[source] - integrals[n]) / width for n in network.nodes
        },
        steps=steps,
    )


# -- vectorized engine ----------------------------------------------------------


def _span(asks: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """The knots a node reports for its asks (each sorted): all from the
    first asked to the last, and where each ask's knots sit among them.  A
    single ask is its own span (None)."""
    if len(asks) == 1:
        return asks[0], None
    first = min(int(a[0]) for a in asks)
    last = max(int(a[-1]) for a in asks)
    return np.arange(first, last + 1), [a - first for a in asks]


class _Replicator:
    """Block-by-block evaluator of one estimator on any network.

    Draws the same event times as the event loop (the same
    :func:`_block_rows`) for the targets and every cache upstream of them, a
    block of :data:`BLOCK` replications at a time, then reads only what the
    estimator needs.
    ``terminal`` takes the targets' versions at the horizon from one
    backward search (:meth:`_settled`) on any graph.  ``time_average``
    integrates their versions at their knots over [horizon/2, horizon]:
    when every drawn cache has one feed, these are traced back to the source
    (:meth:`_trace`), knot 0 of a node being time 0 with version 0 and knot
    q its q-th delivery; otherwise one search gives every drawn cache's
    version at horizon/2, and the step functions settle from there to a
    fixed point with a worklist (:meth:`_iterate`).
    """

    def __init__(self, network: CacheNetwork, targets: list[str], horizon: float, estimator: str):
        self.horizon = horizon
        self.terminal = estimator != "time_average"
        self._edges = np.array([horizon / 2.0, horizon])
        self.source_dist = network.source_dist
        self.dtype = np.int64 if self.terminal else np.float64

        needed: set[str] = set()
        stack = [t for t in targets if t != network.source]
        while stack:
            node = stack.pop()
            if node not in needed:
                needed.add(node)
                stack.extend(
                    link.src for link in network.incoming(node) if link.src != network.source
                )
        caches = [n for n in network.topo_order() if n in needed]
        index = {network.source: 0, **{n: k + 1 for k, n in enumerate(caches)}}

        #: per cache, its feeds in declaration order: (stream id, dist, sender)
        self.feeds = [
            [(_link_stream(link), link.dist, index[link.src]) for link in network.incoming(node)]
            for node in caches
        ]
        #: every drawn cache has one feed: depth order puts each sender first
        self.tree = all(len(feeds) == 1 for feeds in self.feeds)
        #: per node, the sender of its first feed, its only one when
        #: :attr:`tree` (the source's entry is a placeholder)
        self.senders = [0] + [feeds[0][2] for feeds in self.feeds]
        #: per node, the caches it feeds
        self.consumers: list[list[int]] = [[] for _ in range(len(caches) + 1)]
        for k, feeds in enumerate(self.feeds, 1):
            for _, _, s in feeds:
                self.consumers[s].append(k)
        self.targets = [index[t] for t in targets]
        #: every stream a replication draws, as (stream id, law)
        self.streams = [(SOURCE_STREAM, self.source_dist)] + [
            (sid, dist) for feeds in self.feeds for sid, dist, _ in feeds
        ]
        _check_streams(horizon, self.streams)
        #: per cache, where its feeds' rows sit among the streams'
        self._cuts = list(accumulate((len(feeds) for feeds in self.feeds), initial=1))

    def _read(self, events) -> list[int | float]:
        """The targets' readings from one replication's rows, one per stream
        in :attr:`streams` order; each runs past the horizon."""
        horizon, src_events = self.horizon, events[0]
        if self.terminal:
            w0 = int(src_events.searchsorted(horizon, side="right"))
            return [w0 - v for v in self._settled(self.targets, horizon, events)]
        i0, w0 = self._window(src_events)
        windows = self._trace(events) if self.tree else self._iterate(events, i0, w0)
        lo = horizon / 2.0
        width = horizon - lo
        src_integral = _window_integral(
            src_events, np.arange(i0, w0 + 1, dtype=np.float64), i0, w0, lo, horizon
        )
        readings = []
        for knot_times, i, j, versions in windows:
            values = versions.astype(np.float64, copy=False)
            readings.append((src_integral - _window_integral(knot_times, values, i, j, lo, horizon)) / width)
        return readings

    def _window(self, knot_times: np.ndarray) -> tuple[int, int]:
        """The knots in effect at horizon/2 and at the horizon."""
        return tuple(knot_times.searchsorted(self._edges, side="right").tolist())

    def _trace(self, events) -> list[tuple]:
        """One feed per drawn cache, for the time average: each target's
        (knot times, i, j, versions at knots i..j), where i and j are its
        knots in effect at horizon/2 and at the horizon, traced back from
        the target to the source.

        A delivery at knot q carries the sender's version at the sender's
        last event at or before it, so a cache asks its sender only for the
        knots its own asked knots read.  Caches ask deepest first; one that
        several consumers read is traced once, over the span of their asks.
        The source's version at knot q is q; with one feed per cache, the
        streams are in node order.
        """
        asks: list[list[np.ndarray]] = [[] for _ in events]
        windows = []
        for k in self.targets:
            i, j = self._window(events[k])
            windows.append((events[k], i, j, len(asks[k])))
            asks[k].append(np.arange(i, j + 1))
        # backward, deepest cache first: ask the sender for the knots that
        # the asked knots read; slot[k] is that ask's place among the sender's
        where: list[list[np.ndarray] | None] = [None] * len(events)
        slot = [0] * len(events)
        for k in range(len(events) - 1, 0, -1):
            s = self.senders[k]
            asked, where[k] = _span(asks[k])
            read = events[s].searchsorted(events[k][asked - 1], side="right")
            if asked[0] == 0:
                # knot 0 is no delivery: it reads the sender's knot 0
                read[asked == 0] = 0
            slot[k] = len(asks[s])
            asks[s].append(read)
        # forward, from the source: the versions at every ask
        answers = [asks[0]]
        for k in range(1, len(events)):
            versions = answers[self.senders[k]][slot[k]]
            answers.append([versions] if where[k] is None else [versions[w] for w in where[k]])
        return [(knots, i, j, answers[k][r]) for k, (knots, i, j, r) in zip(self.targets, windows)]

    def _iterate(self, events, i0: int, w0: int) -> list[tuple]:
        """Any drawn caches, for the time average: each target's (knot
        times, i, j, versions at knots i..j), settled over [horizon/2,
        horizon] alone; i0 and w0 are the source's knots in effect at
        horizon/2 and at the horizon.

        Each drawn cache's knot 0 holds its settled version at lo =
        horizon/2, found for every cache by one :meth:`_settled` search, and
        its knots 1.. are its deliveries in (lo, horizon].  Each delivery
        reads its sender's last knot at or before it, which depends only on
        event times, so it is found once.  Every node's knot values then lie
        end to end in one array, and a cache's values are one gather from it
        (under a running maximum from its version at lo when it has several
        feeds).  A worklist re-evaluates only caches whose senders changed,
        shallowest first, until none did.
        """
        # per stream, its events at or before lo and at or before the
        # horizon, and its events in (lo, horizon]
        cuts = [(i0, w0), *(d.searchsorted(self._edges, side="right").tolist() for d in events[1:])]
        recent = [d[a:b] for d, (a, b) in zip(events, cuts)]
        # per node (source first): its version at lo and its step times in
        # (lo, horizon]; per cache the permutation merging its feeds'
        # deliveries there (None with one feed or none delivered)
        starts = [i0, *self._settled(range(1, len(self.senders)), self.horizon / 2.0, events, [a for a, _ in cuts])]
        steps = [recent[0]]
        merges: list[np.ndarray | None] = []
        for a, b in zip(self._cuts, self._cuts[1:]):
            merged = recent[a] if b - a == 1 else np.concatenate(recent[a:b])
            perm = None if b - a == 1 or not merged.size else np.argsort(merged, kind="stable")
            steps.append(merged if perm is None else merged[perm])
            merges.append(perm)

        # node k's knots 0..n_k sit at flat[offsets[k] : offsets[k] + n_k + 1]
        offsets = [0, *accumulate(t.size + 1 for t in steps)]
        gathers = []
        for feeds, first, perm in zip(self.feeds, self._cuts, merges):
            reads = [
                steps[s].searchsorted(recent[row], side="right") + offsets[s]
                for row, (_, _, s) in enumerate(feeds, first)
            ]
            gathers.append(reads[0] if perm is None else np.concatenate(reads)[perm])
        # each knot 0 at its version at lo, the source's knots as counted,
        # version 0 elsewhere
        flat = np.zeros(offsets[-1])
        flat[offsets[:-1]] = starts
        flat[: w0 - i0 + 1] = np.arange(i0, w0 + 1)
        # a heap of the caches due, by depth order; all are due at first
        todo = list(range(1, len(steps)))
        while todo:
            k = heapq.heappop(todo)
            new = flat[gathers[k - 1]]
            if merges[k - 1] is not None:
                new[0] = max(new[0], starts[k])
                np.maximum.accumulate(new, out=new)
            old = flat[offsets[k] + 1 : offsets[k + 1]]
            if not np.array_equal(new, old):
                old[:] = new
                for c in self.consumers[k]:
                    if c not in todo:
                        heapq.heappush(todo, c)
        return [(steps[k], 0, steps[k].size, flat[offsets[k] : offsets[k + 1]]) for k in self.targets]

    def _settled(self, starts, t: float, events, counts=None) -> list[int]:
        """The settled versions at t of the nodes ``starts``, from one
        best-first search over (node, time) pairs, latest first, where each
        feed of a popped cache leads to its sender at the feed's last
        delivery at or before that time.  A heap entry carries a bit mask of
        the starts (by place) that reach its pair, and entries for one pair
        merge when popped.  A start expands a node only at the latest time it
        reaches it (``seen``), as no earlier pair there is fresher.  The
        first source pair a start reaches is the latest source time that any
        path of deliveries from it reaches; the source's count there
        (inclusive) is its version, else 0.  A start with its version
        expands nothing more, and the search stops once all have theirs.
        ``counts``, if given, holds each stream's events at or before t,
        which the expansions at t reuse."""
        versions, seen = [0] * len(starts), [0] * len(self.senders)
        due = (1 << len(starts)) - 1  # the starts still without a version
        heap = [(-t, n, 1 << b) for b, n in enumerate(starts)]
        heapq.heapify(heap)
        while due and heap:
            at, n, mask = heapq.heappop(heap)
            while heap and heap[0][0] == at and heap[0][1] == n:
                mask |= heapq.heappop(heap)[2]
            mask &= due & ~seen[n]
            if not mask:
                continue
            seen[n] |= mask
            if n == 0:
                due &= ~mask
                version = int(events[0].searchsorted(-at, side="right"))
                while mask:
                    versions[(mask & -mask).bit_length() - 1] = version
                    mask &= mask - 1
                continue
            for row, (_, _, s) in enumerate(self.feeds[n - 1], self._cuts[n - 1]):
                d = events[row]
                c = counts[row] if counts and -at == t else int(d.searchsorted(-at, side="right"))
                if c:
                    heapq.heappush(heap, (-float(d[c - 1]), s, mask))
        return versions


def _run_iteration_block(args) -> list[np.ndarray]:
    """Worker: replications [start, stop) of every replicator in ``reps``,
    in iteration order, one array per replicator with one row of its
    targets' readings each.

    Block by block, each replicator in turn reads a row of each of its
    streams per replication.  A (stream id, law) at one horizon comes from
    one :func:`_block_rows` call per block where it is one array: it is held
    until the last replicator that reads it has, so replicators that share
    it read the same rows.  A stream drawn row by row is drawn again for
    each replicator, so at most one replicator's rows are held at a time
    beyond the shared arrays.  The generators are the run's, one per stream
    place, reseeded by every draw.
    """
    reps, master_seed, start, stop = args
    outs = [np.empty((stop - start, len(rep.targets)), rep.dtype) for rep in reps]
    keys: dict[tuple, int] = {}  # (stream id, law, horizon) -> its place in ``held``
    slots = [[keys.setdefault((*stream, rep.horizon), len(keys)) for stream in rep.streams] for rep in reps]
    last = {k: p for p, ks in enumerate(slots) for k in ks}  # per key, the last replicator that reads it
    rngs = [RngStream(0) for _ in range(max(len(ks) for ks in slots))]
    for block in range(start // BLOCK, -(-stop // BLOCK)):
        first = block * BLOCK
        skip, end = max(start - first, 0), min(stop - first, BLOCK)
        held: list[np.ndarray | None] = [None] * len(keys)
        for p, (rep, ks, out) in enumerate(zip(reps, slots, outs)):
            rows = []
            for (sid, dist), k, rng in zip(rep.streams, ks, rngs):
                drawn = held[k]
                if drawn is None:
                    drawn = _block_rows(dist, rng, rep.horizon, master_seed, block, sid)
                held[k] = drawn if last[k] > p and isinstance(drawn, np.ndarray) else None
                rows.append(drawn)
            for row, events in zip(out[first + skip - start :], islice(zip(*rows), skip, end)):
                row[:] = rep._read(events)
    return outs


def _replicate(reps: list[_Replicator], master_seed: int, iterations: int, threads: int) -> list[np.ndarray]:
    """Replications [0, iterations) of every replicator at ``master_seed``,
    as one run (see :func:`_run_iteration_block`): per replicator, one row
    of its targets' readings per replication.  ``threads`` affects speed
    only: at most one worker process runs per CPU, and each takes whole
    blocks but for the last."""
    blocks = -(-iterations // BLOCK)
    workers = _workers(threads, blocks)
    step = -(-blocks // workers) * BLOCK
    ranges = [(reps, master_seed, a, min(a + step, iterations)) for a in range(0, iterations, step)]
    if len(ranges) == 1:
        done = [_run_iteration_block(ranges[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            done = list(pool.map(_run_iteration_block, ranges))
    return [np.concatenate(parts) for parts in zip(*done)]


def monte_carlo(
    network: CacheNetwork,
    targets=None,
    horizon: float = DEFAULT_HORIZON,
    iterations: int = DEFAULT_ITERATIONS,
    master_seed: int = DEFAULT_SEED,
    estimator: str = DEFAULT_ESTIMATOR,
    threads: int = 1,
) -> dict[str, SimOutcome]:
    """Independent replications; returns one :class:`SimOutcome` per target.

    Replication i is a function of (master_seed, i) alone, whatever the
    run's length (see :data:`BLOCK`; :func:`simulate_once` reproduces it).
    Results are aggregated in iteration order, so the output is
    bit-identical for a fixed master_seed no matter how the work is
    scheduled; ``threads`` affects speed only (see :func:`_replicate`).
    """
    targets = network.leaves() if targets is None else list(targets)
    check_run(network, horizon, iterations, estimator, targets)
    check_seed(master_seed)
    (rows,) = _replicate([_Replicator(network, targets, horizon, estimator)], master_seed, iterations, threads)
    return {t: SimOutcome.from_samples(t, estimator, rows[:, k].copy(), horizon) for k, t in enumerate(targets)}
