"""Renewal event streams and statistical limit verifiers.

:func:`event_times_until` realizes a renewal counting process up to a
horizon: gaps are drawn from the owning distribution in fixed-size batches
until one batch ends past the horizon, so the event sequence depends only on
(seed, scope).  A :class:`RenewalStream` is a cursor over those events, for
the reference event loop.

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

A verifier chunk holds its paths' event times as a matrix with one path per
column and one event per row.  The running sum then adds one contiguous row
of all paths at a time, rather than waiting on each path's previous event,
and since times increase down every column, a count at t skips the rows
every path reaches by min(t) and those no path reaches by max(t), comparing
only the band between.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, positive_number
from .errors import InfiniteSecondMoment, InvalidParameter
from .rng import RngStream

__all__ = [
    "GAP_BATCH",
    "RenewalStream",
    "MartingalePoint",
    "LimitCheck",
    "verify_renewal_limits",
    "verify_backward_recurrence_limit",
    "verify_windowed_count_limit",
    "z_score",
]

#: gaps drawn per batch; fixed so an event sequence depends only on its
#: stream, and a shorter horizon draws a prefix of a longer one's batches
GAP_BATCH = 1024

#: most events one stream or verifier path may be expected to draw, and most
#: gaps a verifier chunk first draws; past it a run would allocate without bound
_EVENT_BUDGET = 10_000_000

#: paths each verifier check draws unless told otherwise
DEFAULT_PATHS = 20_000
_MIN_VERIFIER_PATHS = 10_000
_VERIFIER_CHUNK = 2048
#: narrowest chunk whose running sum adds one row of all paths at a time;
#: deep paths narrow a chunk below it (see :func:`_chunk_paths`)
_ROW_SUM_MIN_PATHS = 256
#: elements per band of a narrower chunk's running sum, small enough for cache
_SUM_BAND = 1 << 15


def event_times_until(spec: Distribution, rng: RngStream, t: float) -> np.ndarray:
    """Event times from 0 up to and beyond t (the final entry exceeds t).

    Each event is the previous batches' last event plus the running sum of
    its own batch's gaps; one batch that passes t is returned as summed."""
    times = np.add.accumulate(spec.sample_batch(rng, GAP_BATCH))
    tail = float(times[-1])
    if tail > t:
        return times
    chunks = [times]
    while tail <= t:
        times = np.add.accumulate(spec.sample_batch(rng, GAP_BATCH))
        times += tail
        tail = float(times[-1])
        chunks.append(times)
    return np.concatenate(chunks)


class RenewalStream:
    """Cursor over one renewal process's :func:`event_times_until` events.

    Every event at or before ``horizon`` can be popped, and one more peeked.
    """

    __slots__ = ("_times", "_pos")

    def __init__(self, spec: Distribution, rng: RngStream, horizon: float):
        self._times = event_times_until(spec, rng, horizon)
        self._pos = 0

    def peek(self) -> float:
        """Next event time, without consuming it."""
        return float(self._times[self._pos])

    def pop(self) -> float:
        """Consume and return the next event time."""
        t = self.peek()
        self._pos += 1
        return t


def _check_event_budget(stream: str, expected: float) -> None:
    """Reject a draw whose expected event count is over :data:`_EVENT_BUDGET`,
    naming the stream; callers check once per call, before drawing."""
    if not expected <= _EVENT_BUDGET:
        raise InvalidParameter(
            f"{stream} would draw about {expected:.3g} events, over the budget of "
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
        raise InfiniteSecondMoment(f"{spec} has {fault}; the limit theorems need E[Y] and E[Y^2] finite")
    return spec.moments()


def _check_paths(n_paths: int) -> None:
    if n_paths < _MIN_VERIFIER_PATHS:
        raise InvalidParameter(
            f"verifiers need at least {_MIN_VERIFIER_PATHS} paths for a stable z-score, got {n_paths}"
        )


def _path_events(spec: Distribution, t_max: float) -> float:
    """Events each :func:`_event_matrix` path is first drawn for, before its
    32 spare events: 1.25 t_max over the mean gap."""
    return 1.25 * t_max / spec.moments().mean


def _chunk_paths(t_max: float, *specs: Distribution) -> int:
    """Paths per verifier chunk drawing each spec up to t_max: at most
    :data:`_VERIFIER_CHUNK`, and each first :func:`_event_matrix` draw within
    :data:`_EVENT_BUDGET`.  Rejects a spec whose one path is over the budget."""
    paths = _VERIFIER_CHUNK
    for spec in specs:
        events = _path_events(spec, t_max)
        _check_event_budget(f"a verifier path of {spec}", events + 32)
        paths = min(paths, _EVENT_BUDGET // (int(events) + 32))
    return paths


def _sum_down(block: np.ndarray) -> None:
    """Running sum down each column of ``block``, in place; each column's
    sums stay sequential, so it equals ``np.cumsum(axis=0)`` bit for bit.

    A block of at least :data:`_ROW_SUM_MIN_PATHS` paths takes one vector
    add per row.  A narrower one, whose per-row call would cost more than its
    adds, runs ``cumsum`` over bands of :data:`_SUM_BAND` elements, each
    band's first row first adding the last row above it."""
    paths = block.shape[1]
    if paths >= _ROW_SUM_MIN_PATHS:
        for prev, row in zip(block[:-1], block[1:]):
            np.add(row, prev, out=row)
        return
    rows = max(1, _SUM_BAND // paths)
    for start in range(0, len(block), rows):
        band = block[start:start + rows]
        if start:
            band[0] += block[start - 1]
        np.cumsum(band, axis=0, out=band)


def _event_matrix(spec: Distribution, rng: RngStream, paths: int, t_max: float,
                  csum: np.ndarray | None = None) -> np.ndarray:
    """Cumulative event times, one path per column and one event per row,
    every column guaranteed past t_max; given ``csum``, event rows are
    appended to it rather than drawn anew.

    Stream position p is event p // paths of path p % paths, so the running
    sum is a vector add over all paths per event row, and an extension
    continues the stream and the sums exactly as one deeper draw would."""
    depth = int(_path_events(spec, t_max)) + 32
    if csum is None:
        csum = spec.sample_batch(rng, depth * paths).reshape(depth, paths)
        _sum_down(csum)
    while float(csum[-1].min()) <= t_max:
        ext = max(32, depth // 8)
        gaps = spec.sample_batch(rng, ext * paths).reshape(ext, paths)
        gaps[0] += csum[-1]
        _sum_down(gaps)
        csum = np.concatenate([csum, gaps])
    return csum


def _chunks(n_paths: int, paths: int, master_seed: int, *scopes: tuple):
    """Each verifier chunk's path count (``paths`` but for the last), then one
    stream per scope reseeded to (master_seed, *scope, chunk index)."""
    rngs = [RngStream(master_seed, *scope, 0) for scope in scopes]
    for chunk_idx, done in enumerate(range(0, n_paths, paths)):
        for rng, scope in zip(rngs, scopes):
            rng.reseed(master_seed, *scope, chunk_idx)
        yield (min(paths, n_paths - done), *rngs)


def _count_at(csum: np.ndarray, t) -> np.ndarray:
    """Per-path N(t); t is a scalar or a per-path vector.

    Times increase down each column, so a row's max and min do too, and two
    bisections find the band of event rows that can tell paths apart: rows
    before ``lo`` (max at most min(t)) count whole, rows from ``hi`` on (min
    past max(t)) not at all.  The counts equal ``(csum <= t).sum(axis=0)``."""
    t = np.asarray(t)
    lo = bisect.bisect_right(csum, float(t.min()), key=np.ndarray.max)
    hi = bisect.bisect_right(csum, float(t.max()), key=np.ndarray.min)
    return lo + (csum[lo:hi] <= t).sum(axis=0)


def _last_event(csum: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-path time of the last event at or before t (per path), 0 if none."""
    counts = _count_at(csum, t)
    return np.where(counts > 0, csum[np.maximum(counts - 1, 0), np.arange(csum.shape[1])], 0.0)


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


def verify_renewal_limits(spec: Distribution, t_grid, t_large: float | None = None, n_paths: int = DEFAULT_PATHS,
                          master_seed: int = 0) -> tuple[list[MartingalePoint], LimitCheck]:
    """The martingale and recurrence checks of one law, on the same paths.

    Returns the studentized mean of M(t) = N(t) + 1 - T_{N(t)+1}/mean at each
    time of ``t_grid`` (zero in the population for any finite mean), and the
    mean backward recurrence time at a uniform time in [t_large/2, t_large]
    against its long-run limit E[Y^2]/(2E[Y]).  Each chunk's paths are drawn
    to t_large for the latter, then extended to the grid's last time.
    """
    m = _require_finite_moments(spec)
    _check_paths(n_paths)
    t_grid = [positive_number("t", t) for t in t_grid]
    t_large = _t_large(t_large, m)
    t_max = max([t_large, *t_grid])
    chunk = _chunk_paths(t_max, spec)
    sums, sums_sq = [0.0] * len(t_grid), [0.0] * len(t_grid)
    total = total_sq = 0.0
    for paths, rng in _chunks(n_paths, chunk, master_seed, ("verify-recurrence",)):
        t_eval = _window_times(rng, paths, t_large)
        csum = _event_matrix(spec, rng, paths, t_large)
        backward = t_eval - _last_event(csum, t_eval)
        total += float(backward.sum())
        total_sq += float((backward * backward).sum())
        csum = _event_matrix(spec, rng, paths, t_max, csum)
        for k, t in enumerate(t_grid):
            counts = _count_at(csum, t)
            mart = counts + 1.0 - csum[counts, np.arange(paths)] / m.mean
            sums[k] += float(mart.sum())
            sums_sq[k] += float((mart * mart).sum())
        del csum  # free it before the next chunk's draw
    points = [MartingalePoint(t, *_summary(total_t, sq_t, n_paths), n_paths)
              for t, total_t, sq_t in zip(t_grid, sums, sums_sq)]
    return points, _limit_check(total, total_sq, n_paths, m.mean_backward_recurrence)


def verify_backward_recurrence_limit(spec: Distribution, t_large: float | None = None,
                                     n_paths: int = DEFAULT_PATHS, master_seed: int = 0) -> LimitCheck:
    """The recurrence check of :func:`verify_renewal_limits` alone."""
    return verify_renewal_limits(spec, (), t_large, n_paths, master_seed)[1]


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
) -> LimitCheck:
    """Check E[N(t) - N(t - S(t))] against E[S]/E[Y] for a recurrence window.

    N counts renewals of ``source_spec``; the window S(t) is the backward
    recurrence time of an independent ``probe_spec`` stream, so the limit
    target is (E[Y_probe^2] / (2 E[Y_probe])) / E[Y_source].  Paths are
    evaluated at a uniformly random time in [t_large/2, t_large].
    """
    m_src = _require_finite_moments(source_spec)
    m_probe = _require_finite_moments(probe_spec)
    _check_paths(n_paths)
    t_large = _t_large(t_large, m_src, m_probe)
    chunk = _chunk_paths(t_large, probe_spec, source_spec)
    target = m_probe.mean_backward_recurrence / m_src.mean
    total = total_sq = 0.0
    scopes = [("verify-window", part) for part in ("times", "probe", "source")]
    for paths, rng_t, rng_probe, rng_src in _chunks(n_paths, chunk, master_seed, *scopes):
        t_eval = _window_times(rng_t, paths, t_large)
        p_last = _last_event(_event_matrix(probe_spec, rng_probe, paths, t_large), t_eval)
        src_csum = _event_matrix(source_spec, rng_src, paths, t_large)
        diff = _count_at(src_csum, t_eval) - _count_at(src_csum, p_last)
        del src_csum  # free it before the next chunk's draw
        total += float(diff.sum())
        total_sq += float((diff * diff).sum())
    return _limit_check(total, total_sq, n_paths, target)
