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
delivery it receives) over [:data:`_WINDOW_START` x horizon, horizon], less
the source's count there, integrated once a row for every replicator that
reads that row.  When every cache it draws has one feed, the engine traces
those versions back from the targets, as the closed form does: each knot
asks one binary search of its sender's events, hop by hop up to the source
(whose version at its q-th event is q), and a range of knots reads one slice
of the event times.  Otherwise (a cache with several feeds, as on any cycle
among caches) the same search, started from every drawn cache at the window
start, gives each its version there, and each cache's step function over the
window starts from it, merging a cache's feeds by time under a running
maximum from it.  Which sender knot each delivery reads depends on event
times alone, so it is found once per replication; a worklist then
re-evaluates, shallowest first, only the caches whose senders changed, until
none did.  The operator is monotone and starts below its fixed point, so
this is its least fixed point, the same one any order of evaluation reaches.

Streams come in blocks of :data:`BLOCK` replications: stream s of block b
is one generator keyed by (master seed, b, s), and replication BLOCK * b + j
reads row j of its :func:`_block_rows`, so a replication is a function of
(master seed, iteration) alone, whatever the run's length or worker count
(a run's blocks go whole, in contiguous slices, through :func:`~versionage.renewal.pool_map`).
A stream's width, the events of its first draw, is found once a run and
checked against the event budget before any draw (:func:`_plan`).  The rows
are successive draws whose first BLOCK x width gaps are one batch, read as
one array where every row passes the horizon within its share of it.
One run may read several replicators at one master seed (each group of a
sweep's points, see :func:`_replicate`): a block draws each stream id and
law they share once, as one array or row by row, so every replicator reads
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
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, count

import numpy as np

from .distributions import check_seed, positive_number, whole_number
from .errors import InvalidParameter, UnknownNode
from .network import CacheNetwork
from .renewal import RenewalStream, _first_rows, event_times_until, pool_map
from .rng import RngStream

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

SOURCE_STREAM = ("source",)

#: replications per block: replication BLOCK * b + j reads row j of each
#: stream's :func:`_block_rows` in block b
BLOCK = 8

#: the time average's window is [_WINDOW_START * horizon, horizon]
_WINDOW_START = 0.5


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


def check_run(network: CacheNetwork, horizon, iterations, estimator: str, targets) -> tuple[float, int, list | None]:
    """Reject run arguments before anything is drawn, and return the horizon
    as a float, the iteration count as an int and the targets as a list;
    ``targets`` None (none named yet) is left unchecked."""
    if estimator not in ESTIMATORS:
        raise InvalidParameter(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    iterations = whole_number("iterations", iterations)
    if iterations < 1:
        raise InvalidParameter(f"iterations must be >= 1, got {iterations}")
    check_samples(iterations, 1, "target")
    horizon = positive_number("horizon", horizon)
    if targets is None:
        return horizon, iterations, None
    if isinstance(targets, str):
        raise InvalidParameter(f"targets must be a list of node ids, not the string {targets!r}")
    if isinstance(targets, Mapping) or not isinstance(targets, Iterable):
        raise InvalidParameter(f"targets must be a list of node ids, got {targets!r}")
    targets = list(targets)
    if not targets:
        raise InvalidParameter(
            "no targets: the target list is empty, or none was given and the network "
            "has no leaves (every cache forwards to another); name the targets"
        )
    wrong = [t for t in targets if not isinstance(t, str)]
    if wrong:
        raise InvalidParameter(f"targets must be node ids (strings), got {wrong}")
    repeated = [t for t, n in Counter(targets).items() if n > 1]
    if repeated:
        raise InvalidParameter(f"targets name {repeated} more than once")
    unknown = [t for t in targets if t not in network.depth]
    if unknown:
        raise UnknownNode(f"targets reference undeclared nodes {unknown}")
    check_samples(iterations, len(targets), "targets")
    return horizon, iterations, targets


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


def _plan(horizon: float, streams) -> list[tuple]:
    """Every stream a run draws, given as (stream id, law), as (stream id,
    law, width), ``width`` the events of its first draw (:func:`_first_rows`
    at the horizon), which refuses by name a stream expected to draw over
    the event budget (a mean that underflows to 0 draws without end)."""
    names = ["source" if sid == SOURCE_STREAM else f"link {sid[1]}->{sid[2]}" for sid, _ in streams]
    return [(sid, dist, _first_rows(dist, horizon, "stream", name)) for (sid, dist), name in zip(streams, names)]


def _block_rows(dist, rng: RngStream, horizon: float, width: int, master_seed: int, block: int, sid: tuple, whole=True):
    """Stream ``sid``'s event times in ``block``, one row per replication:
    BLOCK successive event_times_until draws at the horizon from ``rng``
    reseeded to (master_seed, block, stream id), whose first BLOCK * width
    gaps (``width``: the stream's :func:`_plan` width) are always one batch;
    that changes no bit of them but for a beta with a whole b, whose sampler
    draws factor by factor.  With ``whole``, if every row passes the horizon
    within its width, they are one array, the batch summed along rows;
    otherwise they are a list of the BLOCK draws."""
    rng.reseed(master_seed, block, *sid)
    if whole:
        rows = dist.sample_batch(rng, BLOCK * width).reshape(BLOCK, width)
        np.add.accumulate(rows, axis=1, out=rows)
        if (rows[:, -1] > horizon).all():
            return rows
        rng.reseed(master_seed, block, *sid)  # the batch again, as the draws' head
    head = [dist.sample_batch(rng, BLOCK * width)]
    return [event_times_until(dist, rng, horizon, head) for _ in range(BLOCK)]


def _window_integral(
    knot_times: np.ndarray, values: np.ndarray, i: int, j: int, lo: float, hi: float
) -> float:
    """Integral over [lo, hi] of a step function with knot 0 at time 0 and
    knot q at knot_times[q - 1]; i and j are the knots in effect at lo and
    hi, and ``values`` (float64) holds the function's values at knots i..j;
    lo, knot_times[i:j] and hi fill one buffer, whose differences weigh them."""
    if i == j:
        return float(values[0]) * (hi - lo)
    knots = np.empty(j - i + 2)
    knots[0], knots[-1] = lo, hi
    knots[1:-1] = knot_times[i:j]
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
    that form, and it draws the block's BLOCK rows as every run does, since
    row j starts where rows 0..j - 1 end.  All caches start at version 0.
    Each instant's events are popped together: the source's renewals count,
    then the deliveries repeat until no version moves.
    """
    horizon = positive_number("horizon", horizon)
    iteration = whole_number("iteration", iteration)
    if iteration < 0:
        raise InvalidParameter(f"iteration must be >= 0, got {iteration}")
    master_seed = check_seed(master_seed)
    links = network.links
    plan = _plan(horizon, [(SOURCE_STREAM, network.source_dist)] + [(_link_stream(l), l.dist) for l in links])
    block, row = divmod(iteration, BLOCK)
    rng = RngStream(master_seed)  # each stream's block reseeds it
    streams = [RenewalStream(_block_rows(dist, rng, horizon, width, master_seed, block, sid, whole=False)[row])
               for sid, dist, width in plan]
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
    lo = _WINDOW_START * horizon
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


class _Replicator:
    """Block-by-block evaluator of one estimator on any network.

    Draws the same event times as the event loop (the same
    :func:`_block_rows`) for the targets and every cache upstream of them, a
    block of :data:`BLOCK` replications at a time, then reads only what the
    estimator needs.
    ``terminal`` takes the targets' versions at the horizon from one
    backward search (:meth:`_settled`) on any graph.  ``time_average``
    integrates their versions at their knots over the window [lo, horizon],
    lo = :data:`_WINDOW_START` x horizon: when every drawn cache has one
    feed, these are traced back to the source (:meth:`_trace`), knot 0 of a
    node being time 0 with version 0 and knot q its q-th delivery; otherwise
    one search gives every drawn cache's version at lo, and the step
    functions settle from there to a fixed point with a worklist
    (:meth:`_iterate`).
    """

    def __init__(self, network: CacheNetwork, targets: list[str], horizon: float, estimator: str):
        self.horizon = horizon
        self.estimator = estimator
        #: the targets' names, in the order of their readings
        self.names = list(targets)
        self.terminal = estimator != "time_average"
        #: the window's start, a float computed once, and its edges
        self._lo = _WINDOW_START * horizon
        self._edges = np.array([self._lo, horizon])
        self.dtype = np.int64 if self.terminal else np.float64

        drawn = network.feeds(targets)
        index = {network.source: 0, **{n: k for k, n in enumerate(drawn, 1)}}
        #: every stream a replication draws, as its :func:`_plan`: the
        #: source's, then each drawn cache's feeds in turn
        self.streams = _plan(horizon, [(SOURCE_STREAM, network.source_dist)]
                             + [(_link_stream(link), link.dist) for links in drawn.values() for link in links])
        #: per cache, its feeds in declaration order: (row among the streams, sender)
        rows = count(1)
        self.feeds = [[(next(rows), index[link.src]) for link in links] for links in drawn.values()]
        #: every drawn cache has one feed: depth order puts each sender first
        self.tree = all(len(feeds) == 1 for feeds in self.feeds)
        #: per node, the sender of its first feed, its only one when
        #: :attr:`tree` (the source's entry is a placeholder)
        self.senders = [0] + [feeds[0][1] for feeds in self.feeds]
        #: per node, the caches it feeds
        self.consumers: list[list[int]] = [[] for _ in self.senders]
        for k, feeds in enumerate(self.feeds, 1):
            for _, s in feeds:
                self.consumers[s].append(k)
        self.targets = [index[t] for t in targets]

    def _read(self, events, source) -> list[int | float]:
        """The targets' readings from one replication's rows, one per stream
        in :attr:`streams` order; each runs past the horizon.  ``source`` is
        the source row's :meth:`_source` for the time average, else None."""
        horizon = self.horizon
        if self.terminal:
            w0 = int(events[0].searchsorted(horizon, side="right"))
            return [w0 - v for v in self._settled(self.targets, horizon, events)]
        i0, w0, src_integral = source
        windows = self._trace(events) if self.tree else self._iterate(events, i0, w0)
        lo = self._lo
        width = horizon - lo
        readings = []
        for knot_times, i, j, versions in windows:
            values = versions.astype(np.float64, copy=False)
            readings.append((src_integral - _window_integral(knot_times, values, i, j, lo, horizon)) / width)
        return readings

    def _source(self, src_events: np.ndarray) -> tuple[int, int, float]:
        """The source's knots in effect at the window's edges, and the
        integral of its count over the window, for the time average."""
        i0, w0 = self._window(src_events)
        values = np.arange(i0, w0 + 1, dtype=np.float64)
        return i0, w0, _window_integral(src_events, values, i0, w0, self._lo, self.horizon)

    def _window(self, knot_times: np.ndarray) -> tuple[int, int]:
        """The knots in effect at the window start and at the horizon."""
        return tuple(knot_times.searchsorted(self._edges, side="right").tolist())

    def _trace(self, events) -> list[tuple]:
        """One feed per drawn cache, for the time average: each target's
        (knot times, i, j, versions at knots i..j), where i and j are its
        knots in effect at the window start and at the horizon, traced back
        from the target to the source.

        A delivery at knot q carries the sender's version at the sender's
        last event at or before it, so a cache asks its sender only for the
        knots its own asked knots read: a target its window, as the knot
        range (i, j), and a consumer its reads, as an array.  Caches ask
        deepest first.  A lone array ask is read as it is; other asks are
        read as one slice of event times over their span [first, last], a
        range's versions a slice of the span's and an array's gathered.
        The source's version at knot q is q; with one feed per cache, the
        streams are in node order.
        """
        asks: list[list] = [[] for _ in events]
        for k in self.targets:
            asks[k].append(self._window(events[k]))
        # backward, deepest cache first: ask the sender for the knots that
        # the asked knots read; slot[k] is that ask's place among the
        # sender's, and base[k] the first knot of k's span (None: a lone ask)
        base, slot = [None] * len(events), [0] * len(events)
        for k in range(len(events) - 1, 0, -1):
            s, own = self.senders[k], asks[k]
            if len(own) == 1 and not isinstance(own[0], tuple):
                asked = own[0]
                read = events[s].searchsorted(events[k][asked - 1], side="right")
                if asked[0] == 0:
                    # knot 0 is no delivery: it reads the sender's knot 0
                    read[asked == 0] = 0
            else:
                base[k] = first = min(int(a[0]) for a in own)
                last = max(int(a[-1]) for a in own)
                read = events[s].searchsorted(events[k][max(first - 1, 0) : last], side="right")
                if first == 0:
                    read = np.concatenate(([0], read))  # knot 0 reads the sender's knot 0
            slot[k] = len(asks[s])
            asks[s].append(read)
        # forward, from the source: the versions at every ask (a target's first is its window)
        answers = [[np.arange(a[0], a[1] + 1) if isinstance(a, tuple) else a for a in asks[0]]]
        for k in range(1, len(events)):
            versions, first = answers[self.senders[k]][slot[k]], base[k]
            answers.append([versions] if first is None else [
                versions[a[0] - first : a[1] - first + 1] if isinstance(a, tuple) else versions[a - first]
                for a in asks[k]])
        return [(events[k], *asks[k][0], answers[k][0]) for k in self.targets]

    def _iterate(self, events, i0: int, w0: int) -> list[tuple]:
        """Any drawn caches, for the time average: each target's (knot
        times, i, j, versions at knots i..j), settled over the window [lo,
        horizon] alone; i0 and w0 are the source's knots in effect at lo and
        at the horizon.

        Each drawn cache's knot 0 holds its settled version at lo, found for
        every cache by one :meth:`_settled` search, and its knots 1.. are
        its deliveries in (lo, horizon].  Each delivery reads its sender's
        last knot at or before it, which depends only on event times, so it
        is found once.  Every node's knot values then lie end to end in one
        array, and a cache's values are one gather from it (under a running
        maximum from its version at lo when it has several feeds).  A
        worklist re-evaluates only caches whose senders changed, shallowest
        first, until none did.
        """
        # per stream, its events at or before lo and at or before the
        # horizon, and its events in (lo, horizon]
        cuts = [(i0, w0), *(d.searchsorted(self._edges, side="right").tolist() for d in events[1:])]
        recent = [d[a:b] for d, (a, b) in zip(events, cuts)]
        # per node (source first): its version at lo and its step times in
        # (lo, horizon]; per cache the permutation merging its feeds'
        # deliveries there (None with one feed or none delivered)
        starts = [i0, *self._settled(range(1, len(self.senders)), self._lo, events)]
        steps = [recent[0]]
        merges: list[np.ndarray | None] = []
        for feeds in self.feeds:
            merged = recent[feeds[0][0]] if len(feeds) == 1 else np.concatenate([recent[row] for row, _ in feeds])
            perm = None if len(feeds) == 1 or not merged.size else np.argsort(merged, kind="stable")
            steps.append(merged if perm is None else merged[perm])
            merges.append(perm)

        # node k's knots 0..n_k sit at flat[offsets[k] : offsets[k] + n_k + 1]
        offsets = [0, *accumulate(t.size + 1 for t in steps)]
        gathers = []
        for feeds, perm in zip(self.feeds, merges):
            reads = [steps[s].searchsorted(recent[row], side="right") + offsets[s] for row, s in feeds]
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

    def _settled(self, starts, t: float, events) -> list[int]:
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
        expands nothing more, and the search stops once all have theirs."""
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
            for row, s in self.feeds[n - 1]:
                d = events[row]
                c = int(d.searchsorted(-at, side="right"))
                if c:
                    heapq.heappush(heap, (-float(d[c - 1]), s, mask))
        return versions


def _run_blocks(reps, master_seed: int, iterations: int, blocks) -> list[list[np.ndarray]]:
    """Worker: successive blocks ``blocks`` of every replicator in ``reps``,
    clipped at ``iterations``, as one result: one array per replicator with
    one row of its targets' readings per replication.

    Block by block, each replicator in turn reads a row of each of its
    streams per replication.  A planned stream at one horizon comes from one
    :func:`_block_rows` call per block, as one array or row by row: it is
    held until the last replicator that reads it has, so replicators that
    share it read the same rows, and the time_average ones share each source
    row's :meth:`_Replicator._source`.  One generator, reseeded by every
    draw, serves the run, which holds one block's rows at a time.
    """
    keys: dict[tuple, int] = {}  # (stream id, law, width, horizon) -> its place in ``held``
    slots = [[keys.setdefault((*stream, rep.horizon), len(keys)) for stream in rep.streams] for rep in reps]
    last = {k: p for p, ks in enumerate(slots) for k in ks}  # per key, the last replicator that reads it
    rng = RngStream(0)
    first, stop = blocks[0] * BLOCK, min(blocks[-1] * BLOCK + BLOCK, iterations)
    outs = [np.empty((stop - first, len(rep.targets)), rep.dtype) for rep in reps]
    for block in blocks:
        held: list = [None] * len(keys)
        sources: dict[int, list] = {}  # per source key, the window of each row read
        for p, (rep, ks, out) in enumerate(zip(reps, slots, outs)):
            rows = []
            for (sid, dist, width), k in zip(rep.streams, ks):
                drawn = held[k]
                if drawn is None:
                    drawn = _block_rows(dist, rng, rep.horizon, width, master_seed, block, sid)
                held[k] = drawn if last[k] > p else None
                rows.append(drawn)
            windows = [None] * BLOCK if rep.terminal else sources.get(ks[0])
            if windows is None:
                windows = sources[ks[0]] = [rep._source(events) for events in rows[0][: stop - block * BLOCK]]
            for row, events, window in zip(out[block * BLOCK - first :], zip(*rows), windows):
                row[:] = rep._read(events, window)
        del rows, drawn, events  # release this block's rows before the next is drawn
    return [outs]


def _replicate(reps: list[_Replicator], master_seed: int, iterations: int, threads: int) -> list[dict[str, SimOutcome]]:
    """Replications [0, iterations) of every replicator at ``master_seed``,
    as one run (see :func:`_run_blocks`): per replicator, one
    :class:`SimOutcome` per target, each of its samples one replication in
    iteration order.  ``threads`` affects speed only: the blocks go through
    :func:`~versionage.renewal.pool_map`, all in one call in process or a
    few contiguous slices a worker, joined in block order."""
    blocks = range(-(-iterations // BLOCK))
    done = pool_map(partial(_run_blocks, reps, master_seed, iterations), blocks, threads)
    return [{t: SimOutcome.from_samples(t, rep.estimator, rows[:, k].copy(), rep.horizon)
             for k, t in enumerate(rep.names)} for rep, rows in zip(reps, map(np.concatenate, zip(*done)))]


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
    horizon, iterations, targets = check_run(
        network, horizon, iterations, estimator, network.leaves() if targets is None else targets)
    master_seed = check_seed(master_seed)
    (outcomes,) = _replicate([_Replicator(network, targets, horizon, estimator)], master_seed, iterations, threads)
    return outcomes
