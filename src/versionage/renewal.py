"""Renewal event streams and statistical limit verifiers.

:func:`event_times_until` realizes a renewal counting process up to a
horizon, as the one-path case of the verifiers' slab draw below.  A
:class:`RenewalStream` is a cursor over one stream's event times, for the
reference event loop.

The verifiers check the renewal limit theorems this package's closed forms
rest on, by Monte Carlo at a 4-sigma gate:

* the zero-mean martingale embedded in the counting process,
  M(t) = N(t) + 1 - T_{N(t)+1} / mean;
* the limiting mean backward recurrence time E[Y^2] / (2 E[Y]);
* the windowed-count limit E[N(t) - N(t - S(t))] -> E[S] / E[Y] for a window
  S(t) given by the backward recurrence time of an independent probe stream.

The latter two are long-run (Cesaro) limits, so the verifiers evaluate each
path at a uniformly random time in [t/2, t]; that also makes the deterministic
probe case meaningful, where the recurrence time at a fixed t never converges.
Their horizon t defaults to 60 mean gaps of the slowest process, at least 100.
One law's martingale and recurrence checks read the same paths, so their
z-scores are correlated, though each is a valid test on its own; and a
martingale estimate depends on t, which sets how those paths are drawn.

A verifier chunk holds its paths' event times in slabs of event rows, one
path per column, each slab within :data:`_EVENT_BUDGET` values and freed once
read; a simulator stream is the one-path case, its slabs kept and joined.
The first slab is sized from the law's mean and variance to reach the
horizon on nearly every path, never deeper than the 1.25 t / E[Y] + 32 rows a
path is admitted for; a chunk whose deepest path falls short draws further
slabs, which continue every path's running sum.  The running sum adds one
contiguous row of all paths at a time (one accumulate down a lone path),
rather than waiting on each path's previous event, and since times increase
down every column, a count at t skips the rows every path reaches by min(t)
and those no path reaches by max(t), comparing only the band between.

A check (:class:`RenewalLimits`, :class:`WindowedCount`) is validated when
built, and chunk k of its paths is a function of the check and k alone, its
streams keyed by (seed, scope, k).  :func:`run_checks` runs every chunk of a
list of checks through :func:`pool_map`, the simulator's pool loop too,
which gives each worker a few contiguous slices of the chunks, and adds each
check's chunk sums in chunk order, so every result keeps its bytes for any
worker count; the public verifiers are its one-check case.
"""

from __future__ import annotations

import bisect
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, positive_number
from .errors import InfiniteSecondMoment, InvalidParameter
from .rng import RngStream, check_seed

__all__ = [
    "RenewalStream",
    "MartingalePoint",
    "LimitCheck",
    "RenewalLimits",
    "WindowedCount",
    "run_checks",
    "verify_renewal_limits",
    "verify_backward_recurrence_limit",
    "verify_windowed_count_limit",
    "z_score",
]

#: most events one stream or verifier path may be expected to draw, and most
#: gaps one verifier slab holds; past it a run would allocate without bound
_EVENT_BUDGET = 10_000_000

#: paths each verifier check draws unless told otherwise
DEFAULT_PATHS = 20_000
#: fewest and most paths one check draws; all checks' chunks are listed before any draw
_MIN_VERIFIER_PATHS, _MAX_VERIFIER_PATHS = 10_000, 10_000_000
#: paths per verifier chunk; the last chunk holds the rest
_VERIFIER_CHUNK = 2048
#: contiguous slices of a run's jobs per pool worker, all submitted at once.
#: Each slice is a round trip through the pool that costs the parent CPU
#: time; fewer, longer slices leave a worker idle while another finishes
#: its last one (at 4 the default battery ran slower on 2 vCPUs)
_TASKS_PER_WORKER = 8


def event_times_until(spec: Distribution, rng: RngStream, t: float, head: list | None = None) -> np.ndarray:
    """Event times from 0 up to and beyond t (the final entry exceeds t),
    from gaps taken off ``head`` (:func:`_gaps`), then drawn: the column of a
    one-path :func:`_event_slabs`, its slabs joined if several and then
    flattened, a view of the one slab where there is only one."""
    slabs = list(_event_slabs(spec, rng, 1, t, t, head))
    return (slabs[0] if len(slabs) == 1 else np.concatenate(slabs)).reshape(-1)


class RenewalStream:
    """Cursor over one renewal process's event times, which run past the
    horizon: each event up to the horizon can be popped, and the next one
    peeked."""

    __slots__ = ("_times", "_pos")

    def __init__(self, times: np.ndarray):
        # a list of floats: indexing it boxes no numpy scalar
        self._times = times.tolist()
        self._pos = 0

    def peek(self) -> float:
        """Next event time, without consuming it."""
        return self._times[self._pos]

    def pop(self) -> float:
        """Consume and return the next event time."""
        t = self._times[self._pos]
        self._pos += 1
        return t


def _check_event_budget(expected: float, *stream) -> None:
    """Reject a draw whose expected event count is over :data:`_EVENT_BUDGET`,
    naming the stream by its parts, which are formatted only then; callers
    check once per call, before drawing."""
    if not expected <= _EVENT_BUDGET:
        raise InvalidParameter(
            f"{' '.join(map(str, stream))} would draw about {expected:.3g} events, over the budget of "
            f"{_EVENT_BUDGET:.3g}; shorten the horizon or lengthen the mean gap"
        )


@dataclass(frozen=True)
class MartingalePoint:
    """Studentized sample mean of the embedded martingale at one time."""

    t: float
    mean: float
    stderr: float
    z: float
    n_paths: int


@dataclass(frozen=True)
class LimitCheck:
    """Monte Carlo estimate of a renewal limit against its analytic target."""

    estimate: float
    target: float
    stderr: float
    z: float
    n_paths: int


def _require_finite_moments(spec: Distribution):
    fault = spec.moment_fault()
    if fault:
        raise InfiniteSecondMoment(f"{spec} has {fault}; the limit theorems need a positive E[Y] and a finite E[Y^2]")
    return spec.moments()


def _check_paths(n_paths: int) -> None:
    if n_paths < _MIN_VERIFIER_PATHS:
        raise InvalidParameter(
            f"verifiers need at least {_MIN_VERIFIER_PATHS} paths for a stable z-score, got {n_paths}"
        )
    if n_paths > _MAX_VERIFIER_PATHS:
        raise InvalidParameter(f"verifiers take at most {_MAX_VERIFIER_PATHS:.3g} paths: their chunks are listed first")


def _path_events(spec: Distribution, t_max: float) -> float:
    """Events a verifier path is admitted for, before its 32 spare events:
    1.25 t_max over the mean gap, or inf for a mean of 0.  It also bounds a
    chunk's first slab (:func:`_first_rows`)."""
    mean = spec.moments().mean
    return 1.25 * t_max / mean if mean else math.inf


def _first_rows(spec: Distribution, t_large: float, *stream) -> int:
    """Event rows of the first slab of a verifier chunk or simulator stream.

    N(t) is about Normal(n, sigma^2) with n = t / E[Y] and sigma^2 =
    n (E[Y^2] / E[Y]^2 - 1) (the renewal central limit theorem), so n +
    4 sigma + 8 rows reach t_large on nearly every path of a chunk; never
    more than the 1.25 n + 32 a path is admitted for, which a heavy-variance
    law would pass.  A path that falls short is extended, so the rows chosen
    here change no verifier record of any law but a beta with a whole b,
    whose product sampler draws factor by factor over the batch.  A
    simulator block's successive rows take their first slabs from one
    batch, so there they set where each later replication's gaps start.  A
    path expected to draw over :data:`_EVENT_BUDGET` events (the simulator's
    one use of it), as where the mean is 0, is refused, named by the parts
    of ``stream`` if given (the simulator's plan names its streams)."""
    m = spec.moments()
    n = t_large / m.mean if m.mean else math.inf
    _check_event_budget(n, *(stream or ("a stream of", spec)))
    cap = int(_path_events(spec, t_large)) + 32
    deep = n + 4.0 * math.sqrt(n * max(m.second_moment / m.mean / m.mean - 1.0, 0.0))
    # deep is inf where E[Y^2] / E[Y]^2 overflows, as for beta(1e-320, 1)
    return min(int(deep) + 8, cap) if deep < cap else cap


def _check_path_budget(t_max: float, *specs: Distribution) -> None:
    """Reject a spec whose one verifier path, drawn up to t_max, is expected
    to be over :data:`_EVENT_BUDGET`; callers check before any draw."""
    for spec in specs:
        _check_event_budget(_path_events(spec, t_max) + 32, "a verifier path of", spec)


def _sum_down(slab: np.ndarray) -> None:
    """Running sum down each column of ``slab``, in place, equal to
    ``np.cumsum(axis=0)`` bit for bit: one accumulate down a lone path, else
    one vector add per event row.  A function of its own, so that its row
    views die with the call rather than keep the slab alive."""
    if slab.shape[1] == 1:
        np.add.accumulate(slab, axis=0, out=slab)
        return
    for prev, row in zip(slab[:-1], slab[1:]):
        np.add(row, prev, out=row)


def _gaps(spec: Distribution, rng: RngStream, n: int, head: list | None) -> np.ndarray:
    """n gaps of ``spec``: first those left in ``head``, a list of one array
    of gaps drawn before, which keeps the rest, then new draws from rng."""
    if not head or not head[0].size:
        return spec.sample_batch(rng, n)
    gaps, head[0] = head[0][:n], head[0][n:]
    return gaps if gaps.size == n else np.concatenate([gaps, spec.sample_batch(rng, n - gaps.size)])


def _event_slabs(spec: Distribution, rng: RngStream, paths: int, t_large: float, t_max: float, head=None):
    """Cumulative event times in slabs of event rows, one path per column,
    until every path is past t_max: a verifier chunk's paths, or one
    simulator stream's (``paths`` 1), whose gaps may start with a ``head``
    drawn before (:func:`_gaps`).  Stream position p of a slab is event
    p // paths of its rows, path p % paths.  The first slab holds
    :func:`_first_rows` rows, sized from the law's mean and variance to reach
    t_large, each later one an eighth of those so far (at least 32), all
    within :data:`_EVENT_BUDGET` values, so a draw to t_large is a prefix of
    one to any later t_max.  Paths still at 0 after over a budget of gaps in
    all are refused, as a law's draws underflowing to 0: one with P(Y > 0) = q
    does that with probability below exp(-q budget), yet expects 1 / q events
    a path or more, so chance refuses only a law near the budget anyway.

    The loop goes on while the path that reaches least is not past t_max.
    A lone path's reach is its last time, read by one index, and carried as
    that scalar; a wider slab's last row is copied, so that the slab can be
    freed once read, and its least value is the reach."""
    cap = _EVENT_BUDGET // paths
    rows, drawn = min(_first_rows(spec, t_large), cap), 0
    while not drawn or reach <= t_max:
        if drawn * paths > _EVENT_BUDGET and not tail.any():
            raise InvalidParameter(f"{spec} drew only gaps of 0, {drawn} a path, so its events never "
                                   f"reach t = {t_max:g}: its draws underflow to 0")
        slab = _gaps(spec, rng, rows * paths, head).reshape(rows, paths)
        if drawn:
            slab[0] += tail
        _sum_down(slab)
        if paths == 1:
            tail = reach = slab[-1, 0]
        else:
            tail = slab[-1].copy()
            reach = tail.min()
        drawn += rows
        yield slab
        del slab  # free it before the next slab's draw
        rows = min(max(32, drawn // 8), cap)


def _read(slabs, paths: int, *queries) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per query time q (a scalar or a per-path vector), each path's N(q),
    its last event at or before q (0 if none) and its first event after q
    (inf if none), from one pass over a chunk's :func:`_event_slabs`."""
    cols = np.arange(paths)
    out = [(np.zeros(paths, np.intp), np.zeros(paths), np.full(paths, np.inf)) for _ in queries]
    for slab in slabs:
        rows, flat = len(slab), slab.reshape(-1)
        for q, (counts, last, after) in zip(queries, out):
            here = _count_at(slab, q)
            # each path's first event of this slab past q; an index clipped
            # into the slab is one the masks below leave unread
            at = here * paths + cols
            np.copyto(last, flat.take(at - paths, mode="clip"), where=here > 0)
            # times grow from slab to slab, so the first event after q is the least found
            np.minimum(after, flat.take(at, mode="clip"), out=after, where=here < rows)
            counts += here
        del slab, flat  # free it before the next slab's draw
    return out


def _count_at(slab: np.ndarray, t) -> np.ndarray:
    """Per-path count of a slab's events at or before t; t is a scalar or a
    per-path vector.

    Times increase down each column, so a row's max and min do too, and two
    bisections find the band of event rows that can tell paths apart: rows
    before ``lo`` (max at most min(t)) count whole, rows from ``hi`` on (min
    past max(t)) not at all.  The counts equal ``(slab <= t).sum(axis=0)``."""
    t = np.asarray(t)
    lo = bisect.bisect_right(slab, float(t.min()), key=np.ndarray.max)
    hi = bisect.bisect_right(slab, float(t.max()), key=np.ndarray.min)
    return lo + (slab[lo:hi] <= t).sum(axis=0)


#: 4-sigma gate on every z-score, sweep points and verifier checks alike
Z_GATE = 4.0


def z_score(estimate: float, target: float, stderr: float) -> float:
    """Standard errors from ``target`` to ``estimate``, the verdict of every
    check; with zero stderr, 0 on target and an infinity of the error's sign."""
    diff = estimate - target
    if stderr == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / stderr


def _summary(total: float, total_sq: float, n: int, target: float = 0.0) -> tuple[float, float, float]:
    """Mean of n paths from their sum and sum of squares, its standard
    error, and its z against target."""
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    stderr = math.sqrt(var / n)
    return mean, stderr, z_score(mean, target, stderr)


def _limit_check(total: float, total_sq: float, n: int, target: float) -> LimitCheck:
    mean, stderr, z = _summary(total, total_sq, n, target)
    return LimitCheck(estimate=mean, target=target, stderr=stderr, z=z, n_paths=n)


def _t_large(t_large: float | None, *moments) -> float:
    """Horizon of a limit check: by default 60 mean gaps of the slowest
    process, at least 100; a given one must be past 50 mean gaps."""
    slowest = max(m.mean for m in moments)
    if t_large is None:
        return max(100.0, 60.0 * slowest)
    if positive_number("t_large", t_large) < 50.0 * slowest:
        raise InvalidParameter(
            f"t_large must be at least 50 mean gaps of the slowest process ({50.0 * slowest:g}), got {t_large}"
        )
    return t_large


def _window_times(rng: RngStream, paths: int, t_large: float) -> np.ndarray:
    """Per-path evaluation times, uniform over [t/2, t]."""
    return t_large * (0.5 + 0.5 * rng.uniforms(paths))


class RenewalLimits:
    """One law's martingale and recurrence checks (:func:`verify_renewal_limits`),
    validated when built: its law's moments, path count, grid, horizon,
    path budget and seed.  :func:`run_checks` runs it."""

    def __init__(self, spec: Distribution, t_grid, t_large: float | None = None,
                 n_paths: int = DEFAULT_PATHS, master_seed: int = 0):
        self.moments = _require_finite_moments(spec)
        _check_paths(n_paths)
        self.t_grid = [positive_number("t", t) for t in t_grid]
        self.t_large = _t_large(t_large, self.moments)
        self.t_max = max([self.t_large, *self.t_grid])
        _check_path_budget(self.t_max, spec)
        self.spec, self.n_paths, self.master_seed = spec, n_paths, check_seed(master_seed)

    def sums(self, chunk: int, paths: int) -> tuple[float, ...]:
        """Chunk ``chunk`` of ``paths`` paths: the sum and sum of squares of
        their backward recurrence times, then of their martingale values at
        each grid time.  Each chunk's paths are drawn as for the former
        alone, then on to the grid's last time."""
        rng = RngStream(self.master_seed, "verify-recurrence", chunk)
        t_eval = _window_times(rng, paths, self.t_large)
        slabs = _event_slabs(self.spec, rng, paths, self.t_large, self.t_max)
        (_, last, _), *at_grid = _read(slabs, paths, t_eval, *self.t_grid)
        backward = t_eval - last
        sums = [float(backward.sum()), float((backward * backward).sum())]
        for counts, _, after in at_grid:
            mart = counts + 1.0 - after / self.moments.mean
            sums += float(mart.sum()), float((mart * mart).sum())
        return tuple(sums)

    def result(self, sums) -> tuple[list[MartingalePoint], LimitCheck]:
        total, total_sq, *grid = sums
        n = self.n_paths
        points = [MartingalePoint(t, *_summary(s, sq, n), n) for t, s, sq in zip(self.t_grid, grid[::2], grid[1::2])]
        return points, _limit_check(total, total_sq, n, self.moments.mean_backward_recurrence)


class WindowedCount:
    """The windowed-count check of a source and probe law
    (:func:`verify_windowed_count_limit`), validated when built.
    :func:`run_checks` runs it."""

    def __init__(self, source_spec: Distribution, probe_spec: Distribution, t_large: float | None = None,
                 n_paths: int = DEFAULT_PATHS, master_seed: int = 0):
        m_src = _require_finite_moments(source_spec)
        m_probe = _require_finite_moments(probe_spec)
        _check_paths(n_paths)
        self.t_large = _t_large(t_large, m_src, m_probe)
        _check_path_budget(self.t_large, probe_spec, source_spec)
        self.target = m_probe.mean_backward_recurrence / m_src.mean
        self.source_spec, self.probe_spec = source_spec, probe_spec
        self.n_paths, self.master_seed = n_paths, check_seed(master_seed)

    def sums(self, chunk: int, paths: int) -> tuple[float, float]:
        """Chunk ``chunk`` of ``paths`` paths: the sum and sum of squares of
        their windowed counts."""
        rng_t, rng_probe, rng_src = (RngStream(self.master_seed, "verify-window", part, chunk)
                                     for part in ("times", "probe", "source"))
        t_eval = _window_times(rng_t, paths, self.t_large)
        probe_slabs = _event_slabs(self.probe_spec, rng_probe, paths, self.t_large, self.t_large)
        [(_, p_last, _)] = _read(probe_slabs, paths, t_eval)
        src_slabs = _event_slabs(self.source_spec, rng_src, paths, self.t_large, self.t_large)
        (now, _, _), (then, _, _) = _read(src_slabs, paths, t_eval, p_last)
        diff = now - then
        return float(diff.sum()), float((diff * diff).sum())

    def result(self, sums) -> LimitCheck:
        return _limit_check(*sums, self.n_paths, self.target)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else those installed."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(threads: int, jobs: int) -> int:
    """Worker processes for ``jobs`` independent jobs: ``threads``, refused
    below 1, but at most one per usable CPU and one per job, and at least one."""
    if threads < 1:
        raise InvalidParameter(f"threads must be at least 1, got {threads}")
    return max(1, min(int(threads), _usable_cpus(), jobs))


def pool_map(run, jobs, threads: int) -> list:
    """The lists ``run`` returns for contiguous slices of ``jobs``, joined
    in job order, on :func:`_workers` processes: ``run(jobs)`` in process
    for one worker, else one process pool given every slice at once, at
    most :data:`_TASKS_PER_WORKER` a worker, all but the last of one size.
    If a slice raises, the slices not yet started are cancelled and its
    exception is raised."""
    workers = _workers(threads, len(jobs))
    if workers == 1:
        return run(jobs)
    size = -(-len(jobs) // (_TASKS_PER_WORKER * workers))
    read = []
    # the platform's default start method, fork on Linux: the pool forks
    # its workers before it starts its own thread, and the program starts
    # none.  Spawned workers would import numpy afresh, which on 2 vCPUs
    # costs the default battery its whole gain (0.67 s against 0.40 s)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for future in [pool.submit(run, jobs[start:start + size]) for start in range(0, len(jobs), size)]:
            read += future.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return read


def _run_chunks(chunks) -> list[tuple[float, ...]]:
    """Each (check's ``sums``, chunk index, path count)'s sums, in order."""
    return [sums(chunk, paths) for sums, chunk, paths in chunks]


def run_checks(checks, threads: int = 1) -> list:
    """Each check's result, in order, from one :func:`pool_map` of all their
    chunks.  A check's chunk k holds :data:`_VERIFIER_CHUNK` paths (the last
    the rest) drawn from streams keyed by (seed, scope, k), so it is a
    function of the check and k alone, and its sums are added in chunk
    order: a result keeps its bytes for any ``threads``."""
    chunks = [(check.sums, chunk, min(_VERIFIER_CHUNK, check.n_paths - start))
              for check in checks for chunk, start in enumerate(range(0, check.n_paths, _VERIFIER_CHUNK))]
    results, read = [], iter(pool_map(_run_chunks, chunks, threads))
    for check in checks:
        totals = None
        for _ in range(0, check.n_paths, _VERIFIER_CHUNK):
            sums = next(read)
            totals = [total + s for total, s in zip(totals or [0.0] * len(sums), sums)]
        results.append(check.result(totals))
    return results


def verify_renewal_limits(spec: Distribution, t_grid, t_large: float | None = None, n_paths: int = DEFAULT_PATHS,
                          master_seed: int = 0, threads: int = 1) -> tuple[list[MartingalePoint], LimitCheck]:
    """The martingale and recurrence checks of one law, on the same paths.

    Returns the studentized mean of M(t) = N(t) + 1 - T_{N(t)+1}/mean at each
    time of ``t_grid`` (zero in the population for any finite mean), and the
    mean backward recurrence time at a uniform time in [t_large/2, t_large]
    against its long-run limit E[Y^2]/(2E[Y]).  ``threads`` affects speed
    only (:func:`run_checks`).
    """
    return run_checks([RenewalLimits(spec, t_grid, t_large, n_paths, master_seed)], threads)[0]


def verify_backward_recurrence_limit(spec: Distribution, t_large: float | None = None,
                                     n_paths: int = DEFAULT_PATHS, master_seed: int = 0,
                                     threads: int = 1) -> LimitCheck:
    """The recurrence check of :func:`verify_renewal_limits` alone."""
    return verify_renewal_limits(spec, (), t_large, n_paths, master_seed, threads)[1]


def verify_martingale_zero_mean(spec: Distribution, t_grid, n_paths: int = DEFAULT_PATHS,
                                master_seed: int = 0) -> list[MartingalePoint]:
    """The martingale points of :func:`verify_renewal_limits` at its default
    t_large.  Not exported: ``bench/spans.py`` traces it by this name."""
    if not t_grid:
        raise InvalidParameter("t_grid must hold at least one time")
    return verify_renewal_limits(spec, t_grid, None, n_paths, master_seed)[0]


def verify_windowed_count_limit(
    source_spec: Distribution,
    probe_spec: Distribution,
    t_large: float | None = None,
    n_paths: int = DEFAULT_PATHS,
    master_seed: int = 0,
    threads: int = 1,
) -> LimitCheck:
    """Check E[N(t) - N(t - S(t))] against E[S]/E[Y] for a recurrence window.

    N counts renewals of ``source_spec``; the window S(t) is the backward
    recurrence time of an independent ``probe_spec`` stream, so the limit
    target is (E[Y_probe^2] / (2 E[Y_probe])) / E[Y_source].  Paths are
    evaluated at a uniformly random time in [t_large/2, t_large].
    ``threads`` affects speed only (:func:`run_checks`).
    """
    return run_checks([WindowedCount(source_spec, probe_spec, t_large, n_paths, master_seed)], threads)[0]
