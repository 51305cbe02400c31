"""Renewal streams, recurrence times, and the limit-theorem verifiers."""

import math
import multiprocessing
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
from versionage.cli import VERIFY_SPECS, VERIFY_WINDOW_PAIRS
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
    # a shorter horizon draws a prefix of a longer one's events: rayleigh's
    # inverse transform draws the same gaps however a draw is split, so a
    # longer horizon's deeper first slab or extensions only draw further ones
    spec = Rayleigh(sigma=1.0)
    draws = [event_times_until(spec, RngStream(11, "s"), h) for h in sorted(horizons)]
    for short, long in zip(draws, draws[1:]):
        assert np.array_equal(short, long[: short.size])


@pytest.mark.parametrize(
    "spec, horizon",
    [
        (Uniform(lo=0.0, hi=2.0), 500.0),
        (Uniform(lo=0.0, hi=2.0), 1500.0),
        (Uniform(lo=0.0, hi=2.0), 3500.0),
        (ParetoI(shape=3.0, scale=1.0 / 3.0), 1800.0),
        # most gaps are exactly zero, so events repeat
        (Beta(alpha=0.001, beta=1.0), 0.1),
        (Beta(alpha=0.001, beta=1.0), 1.4),
        (Beta(alpha=0.001, beta=1.0), 4.0),
    ],
    ids=str,
)
def test_event_times_are_the_running_sums(monkeypatch, spec, horizon):
    times = event_times_until(spec, RngStream(6, "acc"), horizon)
    assert times[-1] > horizon
    assert times.tobytes() == np.cumsum(spec.sample_batch(RngStream(6, "acc"), times.size)).tobytes()
    # a 16-row first slab extends the stream several times, each extension
    # going on with the running sum; beta(0.001, 1)'s product sampler
    # depends on batch sizes, so only its sums of the same slabs are equal
    slabs, sum_down = [], renewal._sum_down
    monkeypatch.setattr(renewal, "_first_rows", lambda spec, t: 16)
    monkeypatch.setattr(renewal, "_sum_down", lambda slab: slabs.append(len(slab)) or sum_down(slab))
    extended = event_times_until(spec, RngStream(6, "acc"), horizon)
    assert len(slabs) >= 3 and extended.size == sum(slabs) and extended[-1] > horizon >= extended[-slabs[-1] - 1]
    rng = RngStream(6, "acc")
    gaps = np.concatenate([spec.sample_batch(rng, rows) for rows in slabs])
    assert extended.tobytes() == np.cumsum(gaps).tobytes()
    if not isinstance(spec, Beta):
        assert extended.tobytes() == np.cumsum(spec.sample_batch(RngStream(6, "acc"), extended.size)).tobytes()


@pytest.mark.parametrize("spec", [Exponential(rate=1.0), Beta(alpha=0.01, beta=1.5)], ids=str)
def test_a_head_drawn_before_changes_no_bit_of_the_draws(spec):
    # 200 gaps drawn before three draws to t = 50, which take them first:
    # the exponential's first slabs of 86 gaps leave 28 for its third draw,
    # the beta's first slab of 9 469 takes them all and draws the rest
    rng = RngStream(3, "s")
    head = [spec.sample_batch(rng, 200)]
    with_head = [event_times_until(spec, rng, 50.0, head).tobytes() for _ in range(3)]
    rng = RngStream(3, "s")
    assert with_head == [event_times_until(spec, rng, 50.0).tobytes() for _ in range(3)]
    assert not head[0].size


def test_stream_pops_the_events_up_to_the_horizon():
    spec, horizon = Exponential(rate=3.0), 500.0  # about 1 500 events
    stream = RenewalStream(event_times_until(spec, RngStream(4, "s"), horizon))
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


@pytest.mark.parametrize(
    "spec, grid",
    [pytest.param(spec, grid, id=str(spec)) for spec, grid in [
        (Rayleigh(sigma=1.0), [10.0, 100.0]), (Deterministic(c=1.0), [10.0, 100.0]),
        # beta(2, 3)'s product sampler depends on batch sizes, so this holds
        # only while a draw to t_large is a prefix of the draw on to 300
        (Beta(alpha=2.0, beta=3.0), [10.0, 300.0])]],
)
def test_recurrence_alone_equals_the_shared_loop(spec, grid):
    # the martingale points read the recurrence check's paths, drawn as for
    # it alone, so asking for them leaves the recurrence estimate bit for bit
    alone = verify_backward_recurrence_limit(spec, 100.0, N_PATHS, master_seed=13)
    assert verify_renewal_limits(spec, [], 100.0, N_PATHS, master_seed=13) == ([], alone)
    points, check = verify_renewal_limits(spec, grid, 100.0, N_PATHS, master_seed=13)
    assert check == alone and [p.t for p in points] == grid


def test_a_grid_past_t_large_extends_the_paths():
    exp = Exponential(rate=1.0)
    points, check = verify_renewal_limits(exp, [10.0, 300.0], 100.0, N_PATHS, master_seed=14)
    assert [p.t for p in points] == [10.0, 300.0]
    assert all(abs(p.z) < 4.0 for p in points) and abs(check.z) < 4.0
    assert check == verify_backward_recurrence_limit(exp, 100.0, N_PATHS, master_seed=14)


@pytest.mark.parametrize("paths", [2048, 79, 1])
def test_event_slabs_sum_in_place(monkeypatch, paths):
    # a budget of 64 event rows a slab: chi_square(1) paths of 157 events
    # reach t_large = 100, so the first slab is capped at 64 rows; later ones
    # grow from 32 with the rows drawn so far, never with t_max, until every
    # path is past t_max = 400
    spec, cap = ChiSquare(k=1), 64 * paths * 8
    # the first slab's depth is sized at the full budget: a lone path of
    # 157 events is refused under a budget of 64
    first = renewal._first_rows(spec, 100.0)
    monkeypatch.setattr(renewal, "_first_rows", lambda *_: first)
    monkeypatch.setattr(renewal, "_EVENT_BUDGET", 64 * paths)

    def slabs():
        return renewal._event_slabs(spec, RngStream(3, "slabs"), paths, 100.0, 400.0)

    # stream position p of a slab is event p // paths of its rows, path p %
    # paths; each slab continues its paths' running sums, and the last is
    # the first whose every path is past t_max
    stacked = list(slabs())
    sizes = [len(slab) for slab in stacked]
    expected = [64]
    while len(expected) < len(sizes):
        expected.append(min(max(32, sum(expected) // 8), 64))
    assert len(sizes) >= 3 and sizes == expected and max(sizes[1:]) > 32
    ref_rng = RngStream(3, "slabs")
    gaps = np.concatenate([spec.sample_batch(ref_rng, rows * paths).reshape(rows, paths) for rows in sizes])
    assert np.concatenate(stacked).tobytes() == np.cumsum(gaps, axis=0).tobytes()
    assert stacked[-1][-1].min() > 400.0 and stacked[-2][-1].min() <= 400.0
    del stacked, gaps
    if paths == 1:  # a 512-byte slab is below the interpreter's own allocations
        return
    # a slab is drawn into its own gaps, and freed before the next is drawn
    tracemalloc.start()
    try:
        for slab in slabs():
            del slab
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cap


# the default verify battery's laws, window sources and probes included
BATTERY = list(dict.fromkeys([*VERIFY_SPECS, *(law for pair in VERIFY_WINDOW_PAIRS for law in pair)]))


@pytest.mark.parametrize("spec", [*BATTERY, ParetoI(shape=2.0000001, scale=1.0)], ids=str)
def test_first_slab_reaches_n_plus_4_sigma_within_the_admitted_depth(spec):
    # N(t) is about Normal(n, sigma^2) for n = t / E[Y]: the first slab holds
    # n + 4 sigma + 8 rows, and never more than the 1.25 n + 32 a path is
    # admitted for
    m = spec.moments()
    n = 100.0 / m.mean
    sigma = math.sqrt(n * (m.second_moment / m.mean**2 - 1.0))
    admitted = int(1.25 * n) + 32
    slabs = renewal._event_slabs(spec, RngStream(5, "depth"), 2048, 100.0, 100.0)
    rows = len(next(slabs))
    assert rows == min(int(n + 4.0 * sigma) + 8, admitted) <= admitted
    if isinstance(spec, ParetoI) and spec.shape < 3.0:  # sigma is about 15 800 at n = 50
        assert rows == admitted == 94
    if isinstance(spec, Deterministic):  # no spread: n + 8 rows and no second slab
        assert rows == 108 and next(slabs, None) is None


def test_first_slab_takes_the_admitted_depth_where_the_spread_overflows():
    # E[Y^2] / E[Y]^2 is about 1 / alpha, past the largest float
    tiny = Beta(alpha=1e-310, beta=1.0)
    assert renewal._first_rows(tiny, 1e-308) == int(renewal._path_events(tiny, 1e-308)) + 32 == 157


def test_gaps_that_underflow_to_zero_are_refused_rather_than_drawn_forever(alarm):
    # beta(1e-310, 1) has mean 1e-310, but U^(1 / alpha) is 0 for every float
    # U < 1, so no path ever reaches t: paths still at 0 after over a budget
    # of gaps in all are refused, past 4 882 rows of a 2 048-path chunk or
    # 10 M of a lone stream; a mean that is 0 itself is refused before any draw
    tiny = Beta(alpha=1e-310, beta=1.0)
    alarm(10)
    with pytest.raises(InvalidParameter, match=r"beta\(alpha=1e-310, beta=1\) drew only gaps of 0, \d+ a path, .* t = 1e-308"):
        verify_backward_recurrence_limit(tiny, 1e-308, N_PATHS)
    with pytest.raises(InvalidParameter, match=r"drew only gaps of 0, \d{8} a path"):
        event_times_until(tiny, RngStream(0, "s"), 1e-308)
    with pytest.raises(InvalidParameter, match="would draw about inf events"):
        event_times_until(Uniform(lo=0.0, hi=5e-324), RngStream(0, "s"), 1.0)


@pytest.mark.parametrize("spec", [s for s in BATTERY if not isinstance(s, Beta)], ids=str)
def test_first_slab_depth_moves_no_record(monkeypatch, spec):
    # these laws draw the same gaps however a draw is split into batches, and
    # an extension continues each column's running sum, so no record depends
    # on the first slab's depth: neither the admitted 1.25 n + 32 rows nor 16
    # rows, which extend every chunk several times (beta(2, 3)'s product
    # sampler depends on batch sizes, so its records do)
    def checks():
        return (verify_renewal_limits(spec, [10.0, 100.0], 100.0, N_PATHS, master_seed=8),
                verify_windowed_count_limit(spec, spec, 100.0, N_PATHS, master_seed=8))

    fitted, slabs, sum_down = checks(), [], renewal._sum_down
    monkeypatch.setattr(renewal, "_first_rows", lambda spec, t: int(renewal._path_events(spec, t)) + 32)
    assert checks() == fitted
    monkeypatch.setattr(renewal, "_first_rows", lambda spec, t: 16)
    monkeypatch.setattr(renewal, "_sum_down", lambda slab: slabs.append(len(slab)) or sum_down(slab))
    assert checks() == fitted
    # 5 recurrence chunks, then a probe and a source per window chunk
    assert slabs.count(16) == 15 and len(slabs) >= 3 * 15


@st.composite
def _count_cases(draw):
    """A column event matrix (one path per column), a scalar or per-path t,
    and the rows to split the matrix into slabs at."""
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
    cuts = draw(st.lists(st.integers(1, depth - 1), max_size=4, unique=True)) if depth > 1 else []
    return csum, t, sorted(cuts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_count_cases())
def test_banded_counts_equal_the_full_comparison(case):
    csum, t, cuts = case
    full = csum <= t
    assert renewal._count_at(csum, t).tolist() == full.sum(axis=0).tolist()
    # the same matrix split into slabs at random rows, read in one pass
    [(counts, last, after)] = renewal._read(iter(np.split(csum, cuts)), csum.shape[1], t)
    assert counts.tolist() == full.sum(axis=0).tolist()
    assert last.tolist() == np.where(full, csum, 0.0).max(axis=0).tolist()  # event times are >= 0
    assert after.tolist() == np.where(full, np.inf, csum).min(axis=0).tolist()


def test_verifier_chunks_stay_within_the_event_budget(monkeypatch):
    # a budget of 20 000 values holds 9 event rows of a 2 048-path chunk, so
    # every path is drawn in many slabs; the records equal those drawn whole
    slow, fast = Exponential(rate=1.0), Exponential(rate=2.0)

    def checks():
        return (verify_renewal_limits(slow, [10.0, 300.0], 100.0, N_PATHS, master_seed=4),
                verify_windowed_count_limit(slow, fast, 100.0, N_PATHS, master_seed=4))

    whole = checks()
    monkeypatch.setattr(renewal, "_EVENT_BUDGET", 20_000)
    drawn, widths = [], []
    sample, slabs = Exponential.sample_batch, renewal._event_slabs

    def recording_sample(self, rng, n):
        drawn.append(n)
        return sample(self, rng, n)

    def recording_slabs(spec, rng, paths, t_large, t_max):
        widths.append(paths)
        return slabs(spec, rng, paths, t_large, t_max)

    monkeypatch.setattr(Exponential, "sample_batch", recording_sample)
    monkeypatch.setattr(renewal, "_event_slabs", recording_slabs)
    assert checks() == whole
    assert max(drawn) <= 20_000 and len(drawn) > 3 * len(widths)
    # one chunk per recurrence draw, then a probe and a source per window chunk
    last = N_PATHS % 2048
    assert widths == [2048] * 4 + [last] + [w for w in [2048] * 4 + [last] for _ in (0, 1)]


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


# -- the chunk pool ------------------------------------------------------------


class _LazyPool:
    """Stands in for the process pool: runs each task here when its result
    is read, counting the tasks submitted and not yet read, and recording
    how many chunks each holds."""

    made: list = []  # every pool built

    def __init__(self, max_workers):
        self.workers, self.pending, self.peak, self.sizes = max_workers, 0, 0, []
        _LazyPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.sizes.append(len(args[0]))
        self.pending += 1
        self.peak = max(self.peak, self.pending)
        pool = self

        class Future:
            def result(self):
                pool.pending -= 1
                return fn(*args)

        return Future()


def test_threads_leave_every_record_unchanged(monkeypatch):
    # 10 000 paths are four full chunks and a partial one; at two workers
    # they run in one real pool per call, and the sums are added in chunk
    # order, so the results are equal, not merely close
    from concurrent.futures import ProcessPoolExecutor

    starts = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(renewal.os, "cpu_count", lambda: 2)
    spec, probe = ChiSquare(k=1), Uniform(lo=0.0, hi=2.0)

    def checks(threads):
        return (verify_renewal_limits(spec, [10.0, 100.0], 100.0, N_PATHS, master_seed=21, threads=threads),
                verify_windowed_count_limit(spec, probe, 100.0, N_PATHS, master_seed=21, threads=threads))

    serial = checks(1)
    assert starts == []
    assert checks(2) == serial
    assert starts == [2, 2]
    assert multiprocessing.active_children() == []  # each call's pool is shut down and joined


def test_pending_tasks_stay_within_the_bound(monkeypatch):
    # a run keeps at most _IN_FLIGHT tasks a worker submitted and not yet
    # read, however many chunks it has.  Two checks of 2 048-path chunks
    # make 10 chunks, too few to group; 64-path chunks make 314, sent
    # _TASK_CHUNKS at a time
    monkeypatch.setattr(renewal.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(renewal, "ProcessPoolExecutor", _LazyPool)
    for chunk, size, tasks in ((2048, 1, 10), (64, renewal._TASK_CHUNKS, 79)):
        monkeypatch.setattr(renewal, "_VERIFIER_CHUNK", chunk)
        monkeypatch.setattr(_LazyPool, "made", [])
        checks = [renewal.RenewalLimits(Exponential(rate=1.0), [10.0], 100.0, N_PATHS, 3),
                  renewal.WindowedCount(Exponential(rate=2.0), Exponential(rate=1.0), 100.0, N_PATHS, 3)]
        serial = renewal.run_checks(checks, threads=1)
        assert _LazyPool.made == []
        assert renewal.run_checks(checks, threads=4) == serial
        (pool,) = _LazyPool.made
        assert pool.workers == 2 and pool.peak == renewal._IN_FLIGHT * 2 and pool.pending == 0
        assert len(pool.sizes) == tasks and max(pool.sizes) == size
