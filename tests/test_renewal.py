"""Renewal streams, recurrence times, and the limit-theorem verifiers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versionage import (
    Beta,
    ChiSquare,
    Deterministic,
    Exponential,
    InfiniteSecondMoment,
    InvalidParameter,
    ParetoI,
    Rayleigh,
    RngStream,
    Uniform,
    verify_backward_recurrence_limit,
    verify_renewal_limits,
    verify_windowed_count_limit,
)
from versionage import renewal
from versionage.renewal import RenewalStream, event_times_until, verify_martingale_zero_mean, z_score

N_PATHS = 10_000  # verifier minimum; plenty for 4-sigma gates


def events_until(spec, horizon, seed=0, sid="s"):
    """The stream's event times in [0, horizon], inclusive of the right edge."""
    times = event_times_until(spec, RngStream(seed, sid), horizon)
    return times[times <= horizon]


# -- event_times_until and RenewalStream ----------------------------------------

def test_advance_deterministic_unit():
    assert np.array_equal(events_until(Deterministic(c=1.0), 3.5), [1.0, 2.0, 3.0])


def test_advance_deterministic_13():
    assert np.array_equal(events_until(Deterministic(c=1.3), 3.5), [1.3, 2.6])


def test_events_inclusive_right_edge():
    times = event_times_until(Deterministic(c=1.0), RngStream(0, "s"), 2.0)
    assert np.array_equal(times[:3], [1.0, 2.0, 3.0])
    assert times[-1] > 2.0
    assert np.array_equal(events_until(Deterministic(c=1.0), 2.0), [1.0, 2.0])


@given(st.lists(st.floats(min_value=0.01, max_value=3000.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_advance_chunking_invariance_property(horizons):
    # a shorter horizon draws a prefix of a longer one's events: a horizon
    # past a GAP_BATCH boundary only draws further batches
    spec = Rayleigh(sigma=1.0)
    draws = [event_times_until(spec, RngStream(11, "s"), h) for h in sorted(horizons)]
    for short, long in zip(draws, draws[1:]):
        assert np.array_equal(short, long[: short.size])


def _batchwise_events(spec, rng, t):
    """Reference: each batch's events as its start plus the running sum of
    its gaps, the batches concatenated."""
    chunks, tail = [], 0.0
    while tail <= t:
        times = tail + np.cumsum(spec.sample_batch(rng, renewal.GAP_BATCH))
        tail = float(times[-1])
        chunks.append(times)
    return np.concatenate(chunks)


@pytest.mark.parametrize(
    "spec, horizon, batches",
    [
        (Uniform(lo=0.0, hi=2.0), 500.0, 1),
        (Uniform(lo=0.0, hi=2.0), 1500.0, 2),
        (Uniform(lo=0.0, hi=2.0), 3500.0, 4),
        (ParetoI(shape=3.0, scale=1.0 / 3.0), 1800.0, 4),
        # most gaps are exactly zero, so events repeat
        (Beta(alpha=0.001, beta=1.0), 0.1, 1),
        (Beta(alpha=0.001, beta=1.0), 1.4, 2),
        (Beta(alpha=0.001, beta=1.0), 4.0, 4),
    ],
    ids=str,
)
def test_event_times_equal_the_batchwise_sums(spec, horizon, batches):
    times = event_times_until(spec, RngStream(6, "acc"), horizon)
    assert times.size == batches * renewal.GAP_BATCH
    assert times.tobytes() == _batchwise_events(spec, RngStream(6, "acc"), horizon).tobytes()


def test_stream_pops_the_events_up_to_the_horizon():
    spec, horizon = Exponential(rate=3.0), 500.0  # about 1 500 events, two batches
    stream = RenewalStream(spec, RngStream(4, "s"), horizon)
    popped = []
    while stream.peek() <= horizon:
        popped.append(stream.pop())
    assert np.array_equal(popped, events_until(spec, horizon, seed=4))
    assert stream.peek() == event_times_until(spec, RngStream(4, "s"), horizon)[len(popped)]


def test_poisson_count_rate():
    # mean count over many streams approaches rate * T
    rate, horizon, n = 2.0, 50.0, 400
    counts = [events_until(Exponential(rate=rate), horizon, seed=21, sid=i).size for i in range(n)]
    se = np.std(counts, ddof=1) / math.sqrt(n)
    assert abs(np.mean(counts) - rate * horizon) <= 4.0 * se


def test_elementary_renewal_rate():
    spec = Beta(alpha=2.0, beta=3.0)
    mean = spec.moments().mean
    horizon = 1e3 * mean
    n = 300
    rates = [events_until(spec, horizon, seed=33, sid=i).size / horizon for i in range(n)]
    se = np.std(rates, ddof=1) / math.sqrt(n)
    assert abs(np.mean(rates) - 1.0 / mean) <= 4.0 * se


# -- verifiers -----------------------------------------------------------------

def test_martingale_zero_mean_exponential():
    points, _ = verify_renewal_limits(Exponential(rate=1.0), [10.0], n_paths=N_PATHS, master_seed=1)
    assert abs(points[0].z) < 4.0


def test_martingale_zero_mean_uniform_grid():
    points, _ = verify_renewal_limits(
        Uniform(lo=0.0, hi=2.0), [1.0, 5.0, 50.0], n_paths=N_PATHS, master_seed=2
    )
    assert [p.t for p in points] == [1.0, 5.0, 50.0]
    assert all(abs(p.z) < 4.0 for p in points)


def test_martingale_deterministic_is_exactly_zero():
    points, _ = verify_renewal_limits(Deterministic(c=1.0), [2.5], n_paths=N_PATHS, master_seed=3)
    assert points[0].mean == 0.0
    assert points[0].stderr == 0.0
    assert points[0].z == 0.0


def test_martingale_rejects_small_ensembles_and_heavy_tails():
    with pytest.raises(InvalidParameter):
        verify_renewal_limits(Exponential(rate=1.0), [10.0], n_paths=100)
    with pytest.raises(InfiniteSecondMoment):
        verify_renewal_limits(ParetoI(shape=1.5, scale=1.0), [10.0], n_paths=N_PATHS)


def test_backward_recurrence_limit_uniform():
    check = verify_backward_recurrence_limit(Uniform(lo=0.0, hi=2.0), 100.0, N_PATHS, master_seed=4)
    assert check.target == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert abs(check.z) < 4.0


def test_backward_recurrence_limit_exponential():
    rate = 2.0
    check = verify_backward_recurrence_limit(Exponential(rate=rate), 60.0, N_PATHS, master_seed=5)
    assert check.target == pytest.approx(1.0 / rate, rel=1e-12)
    assert abs(check.z) < 4.0


def test_backward_recurrence_limit_rayleigh():
    check = verify_backward_recurrence_limit(Rayleigh(sigma=1.0), 100.0, N_PATHS, master_seed=6)
    assert check.target == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert abs(check.z) < 4.0


def test_backward_recurrence_limit_validates_horizon():
    with pytest.raises(InvalidParameter):
        verify_backward_recurrence_limit(Exponential(rate=1.0), 10.0, N_PATHS)


def test_limit_checks_default_to_60_mean_gaps_of_the_slowest_law():
    # t_large=None is 60 mean gaps of the slowest law, at least 100: 120 for
    # a mean gap of 2, whether that law is the checked one or the probe
    slow, fast = Exponential(rate=0.5), Exponential(rate=4.0)
    assert verify_backward_recurrence_limit(slow, None, N_PATHS, master_seed=3) == (
        verify_backward_recurrence_limit(slow, 120.0, N_PATHS, master_seed=3)
    )
    assert verify_windowed_count_limit(fast, slow, n_paths=N_PATHS, master_seed=3) == (
        verify_windowed_count_limit(fast, slow, 120.0, N_PATHS, master_seed=3)
    )
    assert renewal._t_large(None, fast.moments()) == 100.0


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_verifiers_reject_bad_times(t):
    exp = Exponential(rate=1.0)
    with pytest.raises(InvalidParameter, match="must be a positive finite number"):
        verify_renewal_limits(exp, [10.0, t], n_paths=N_PATHS)
    with pytest.raises(InvalidParameter, match="must be a positive finite number"):
        verify_backward_recurrence_limit(exp, t, N_PATHS)
    with pytest.raises(InvalidParameter, match="must be a positive finite number"):
        verify_windowed_count_limit(exp, exp, t, N_PATHS)


def test_verifiers_check_the_event_budget_before_drawing(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Exponential, "sample_batch", no_draws)
    fast, slow = Exponential(rate=1e12), Uniform(lo=0.0, hi=2.0)
    budget = "a verifier path of exponential\\(rate=1e\\+12\\) would draw about"
    with pytest.raises(InvalidParameter, match=budget):
        verify_renewal_limits(fast, [10.0], n_paths=N_PATHS)
    with pytest.raises(InvalidParameter, match=budget):
        verify_backward_recurrence_limit(fast, 100.0, N_PATHS)
    with pytest.raises(InvalidParameter, match=budget):
        verify_windowed_count_limit(fast, slow, 100.0, N_PATHS)
    with pytest.raises(InvalidParameter, match=budget):
        verify_windowed_count_limit(slow, fast, 100.0, N_PATHS)
    # t_large = 100 is cheap for a mean gap of 1, but the grid's last time
    # sets how deep each path is drawn
    with pytest.raises(InvalidParameter, match="a verifier path of exponential\\(rate=1\\) would draw about"):
        verify_renewal_limits(Exponential(rate=1.0), [10.0, 1e7], 100.0, N_PATHS)


def test_verifiers_check_paths_before_drawing(monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Exponential, "sample_batch", no_draws)
    exp, few = Exponential(rate=1.0), N_PATHS - 1
    with pytest.raises(InvalidParameter, match="at least 10000 paths"):
        verify_renewal_limits(exp, [10.0], n_paths=few)
    with pytest.raises(InvalidParameter, match="at least 10000 paths"):
        verify_backward_recurrence_limit(exp, 100.0, few)
    with pytest.raises(InvalidParameter, match="at least 10000 paths"):
        verify_windowed_count_limit(exp, exp, 100.0, few)


def test_martingale_rejects_an_empty_grid():
    # verify_renewal_limits takes an empty grid (the recurrence check alone);
    # the martingale points alone need at least one time
    with pytest.raises(InvalidParameter, match="at least one time"):
        verify_martingale_zero_mean(Exponential(rate=1.0), [], N_PATHS)


@pytest.mark.parametrize("spec", [Rayleigh(sigma=1.0), Deterministic(c=1.0)], ids=str)
def test_recurrence_alone_equals_the_shared_loop(spec):
    # the martingale points read the recurrence check's paths after it is
    # done, so asking for them leaves the recurrence estimate bit for bit
    alone = verify_backward_recurrence_limit(spec, 100.0, N_PATHS, master_seed=13)
    assert verify_renewal_limits(spec, [], 100.0, N_PATHS, master_seed=13) == ([], alone)
    points, check = verify_renewal_limits(spec, [10.0, 100.0], 100.0, N_PATHS, master_seed=13)
    assert check == alone and [p.t for p in points] == [10.0, 100.0]


def test_a_grid_past_t_large_extends_the_paths():
    exp = Exponential(rate=1.0)
    points, check = verify_renewal_limits(exp, [10.0, 300.0], 100.0, N_PATHS, master_seed=14)
    assert [p.t for p in points] == [10.0, 300.0]
    assert all(abs(p.z) < 4.0 for p in points) and abs(check.z) < 4.0
    assert check == verify_backward_recurrence_limit(exp, 100.0, N_PATHS, master_seed=14)


def test_event_matrix_sums_in_place():
    # chi_square(1) paths of 157 events reach t = 100; t = 110 extends them
    # once, by 32 event rows.  Each call may allocate its result plus a gap
    # block, not a second copy of its samples: a sum beside the gaps would
    # peak at 2x the first matrix and 1.34x the extended one
    spec, paths = ChiSquare(k=1), 2048
    rng = RngStream(3, "matrix")
    tracemalloc.start()
    try:
        first = renewal._event_matrix(spec, rng, paths, 100.0)
        first_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extended = renewal._event_matrix(spec, rng, paths, 110.0, first)
        extension_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (first.shape, extended.shape) == ((157, paths), (189, paths))
    assert first_peak <= 1.25 * first.nbytes
    assert extension_peak <= 1.25 * extended.nbytes
    # stream position p is event p // paths of path p % paths, and the
    # extension's gaps continue each path's running sum
    ref_rng = RngStream(3, "matrix")
    gaps = [spec.sample_batch(ref_rng, depth * paths).reshape(depth, paths) for depth in (157, 32)]
    ref_first = np.cumsum(gaps[0], axis=0)
    assert first.tobytes() == ref_first.tobytes()
    assert extended.tobytes() == np.cumsum(np.concatenate(gaps), axis=0).tobytes()


@pytest.mark.parametrize("paths", [1, 79, renewal._ROW_SUM_MIN_PATHS - 1, renewal._ROW_SUM_MIN_PATHS, 2048])
def test_running_sum_equals_cumsum_either_side_of_the_row_threshold(paths):
    # narrow blocks sum in cumsum bands, wide ones one row at a time; the
    # depth spans two bands and part of a third
    depth = 2 * max(1, renewal._SUM_BAND // paths) + 7
    gaps = np.random.default_rng(paths).exponential(size=(depth, paths))
    block = gaps.copy()
    renewal._sum_down(block)
    assert block.tobytes() == np.cumsum(gaps, axis=0).tobytes()


@st.composite
def _count_cases(draw):
    """A column event matrix (one path per column) and a scalar or per-path t."""
    depth, paths = draw(st.integers(1, 24)), draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["deterministic", "whole", "real"]))
    if kind == "deterministic":  # every event time is hit exactly by some t below
        gaps = np.full((depth, paths), draw(st.sampled_from([0.25, 1.0, 3.0])))
    else:
        gap = st.integers(0, 3).map(float) if kind == "whole" else st.floats(0.0, 4.0)
        gaps = np.array(draw(st.lists(gap, min_size=depth * paths, max_size=depth * paths)))
    csum = np.cumsum(gaps.reshape(depth, paths), axis=0)
    special = [0.0, float(csum[0].min()) / 2, float(csum[-1].min()), float(csum[-1].max())]
    scalar = (st.sampled_from(special) | st.sampled_from(csum.ravel().tolist())
              | st.floats(0.0, float(csum.max()) + 1.0))
    per_path = st.lists(scalar, min_size=paths, max_size=paths).map(np.array)
    t = draw(scalar | per_path | st.sampled_from([csum[-1], csum[0] / 2, csum[depth // 2]]))
    return csum, t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_count_cases())
def test_banded_counts_equal_the_full_comparison(case):
    csum, t = case
    full = csum <= t
    assert renewal._count_at(csum, t).tolist() == full.sum(axis=0).tolist()
    t_path = np.broadcast_to(t, csum.shape[1:])
    last = np.where(full, csum, 0.0).max(axis=0)  # event times are >= 0
    assert renewal._last_event(csum, t_path).tolist() == last.tolist()


def test_verifier_chunks_stay_within_the_event_budget(monkeypatch):
    # with a budget of 20 000 values, a path of 157 events (exponential(1) up
    # to t = 100) fits 127 to a chunk, and one of 282 events (rate 2) 70
    monkeypatch.setattr(renewal, "_EVENT_BUDGET", 20_000)
    asked = []
    draw = renewal._event_matrix

    def recording(spec, rng, paths, t_max, csum=None):
        if csum is None:  # a first draw, not an extension of one
            asked.append((paths, int(renewal._path_events(spec, t_max)) + 32))
        return draw(spec, rng, paths, t_max, csum)

    monkeypatch.setattr(renewal, "_event_matrix", recording)
    slow, fast = Exponential(rate=1.0), Exponential(rate=2.0)
    verify_renewal_limits(slow, [100.0], 100.0, N_PATHS)
    verify_backward_recurrence_limit(slow, 100.0, N_PATHS)
    per_check = [(127, 157)] * (N_PATHS // 127) + [(N_PATHS % 127, 157)]
    assert asked == 2 * per_check
    asked.clear()
    # a grid past t_large sizes the chunks by its depth, 407 events at t = 300
    verify_renewal_limits(slow, [300.0], 100.0, N_PATHS)
    assert {paths for paths, _ in asked[:-1]} == {20_000 // 407}
    asked.clear()
    verify_windowed_count_limit(slow, fast, 100.0, N_PATHS)
    # the window check draws both laws in each chunk, so the deeper path sets its size
    assert {paths for paths, _ in asked[:-2]} == {70}
    assert sum(paths for paths, _ in asked) == 2 * N_PATHS
    assert all(paths * depth <= 20_000 for paths, depth in asked)


def test_z_score_is_signed_and_infinite_without_spread():
    assert z_score(1.5, 0.5, 0.25) == 4.0
    assert z_score(0.5, 0.5, 0.0) == 0.0
    assert z_score(0.0, 0.5, 0.0) == -math.inf
    assert z_score(1.0, 0.5, 0.0) == math.inf


def test_martingale_repeated_time_repeats_its_point():
    spec = Exponential(rate=1.0)
    (once,), check = verify_renewal_limits(spec, [10.0], n_paths=N_PATHS, master_seed=12)
    assert verify_renewal_limits(spec, [10.0, 10.0], n_paths=N_PATHS, master_seed=12) == ([once, once], check)


def test_windowed_count_poisson_pair():
    # Poisson source at rate 2 with a Poisson probe at rate 1: limit is 2/1
    check = verify_windowed_count_limit(
        Exponential(rate=2.0), Exponential(rate=1.0), 100.0, N_PATHS, master_seed=7
    )
    assert check.target == pytest.approx(2.0, rel=1e-12)
    assert abs(check.z) < 4.0


def test_windowed_count_uniform_probe():
    source = Rayleigh(sigma=1.0)
    mu = source.moments().mean
    check = verify_windowed_count_limit(
        source, Uniform(lo=0.0, hi=2.0), 100.0, N_PATHS, master_seed=8
    )
    assert check.target == pytest.approx((2.0 / 3.0) / mu, rel=1e-12)
    assert abs(check.z) < 4.0


def test_windowed_count_deterministic_probe():
    # the probe's recurrence time is asymptotically uniform on (0, c) in time
    # average, so the limit is c/2 over the source mean
    check = verify_windowed_count_limit(
        Exponential(rate=1.0), Deterministic(c=1.0), 100.0, N_PATHS, master_seed=9
    )
    assert check.target == pytest.approx(0.5, rel=1e-12)
    assert abs(check.z) < 4.0


def test_verifiers_are_reproducible():
    a = verify_backward_recurrence_limit(Uniform(lo=0.0, hi=2.0), 100.0, N_PATHS, master_seed=10)
    b = verify_backward_recurrence_limit(Uniform(lo=0.0, hi=2.0), 100.0, N_PATHS, master_seed=10)
    assert a == b


def test_verify_record_fingerprint():
    # pinned output of the verifier's streams: any change to how a chunk's
    # gaps are drawn, laid out or summed changes these records
    check = verify_backward_recurrence_limit(Rayleigh(sigma=1.0), None, N_PATHS, master_seed=1)
    window = verify_windowed_count_limit(Exponential(rate=1.0), Exponential(rate=2.0), None, N_PATHS, master_seed=1)
    assert (repr(check.estimate), repr(check.stderr)) == ("0.7898667496163772", "0.0059604756475203835")
    assert (repr(window.estimate), repr(window.stderr)) == ("0.4875", "0.008435134269768023")
