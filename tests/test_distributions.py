"""Moments and samplers, checked against independent oracles.

The oracles are the frozen ``scipy.stats`` laws ``expon``, ``uniform``,
``rayleigh``, ``chi2``, ``beta`` and ``pareto`` (the ``scipy_law`` fixture in
``conftest.py``), written apart from versionage.  Closed-form moments are
verified two ways: against values frozen from an adaptive-quadrature
integration of each density, and against a live quadrature of the scipy
density run at 1e-9 relative tolerance.  Samplers are verified by
Kolmogorov-Smirnov tests against the scipy CDFs and by moment matching at the
4-standard-error level.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from versionage import (
    Beta,
    ChiSquare,
    Deterministic,
    Exponential,
    InvalidParameter,
    ParetoI,
    Rayleigh,
    RngStream,
    Uniform,
    from_literal,
)
from versionage.distributions import _BETA_BLOCK, _BETA_PRODUCT_MAX_B

ALL_SPECS = [
    Exponential(rate=1.0),
    Exponential(rate=2.0),
    Uniform(lo=0.0, hi=2.0),
    Uniform(lo=0.5, hi=3.0),
    Rayleigh(sigma=1.0),
    ChiSquare(k=1),  # a squared normal
    ChiSquare(k=3),  # numpy's sampler, as for every k >= 2
    ChiSquare(k=4),
    # whole beta up to the cap: a product of powered uniforms
    Beta(alpha=2.0, beta=3.0),
    Beta(alpha=0.8, beta=2.0),
    Beta(alpha=2.5, beta=1.0),
    # numpy's sampler: whole beta above the cap, and fractional beta
    Beta(alpha=1.5, beta=_BETA_PRODUCT_MAX_B + 1.0),
    Beta(alpha=2.0, beta=2.5),
    ParetoI(shape=3.0, scale=1.0 / 3.0),
    Deterministic(c=1.5),
]

CONTINUOUS_SPECS = [s for s in ALL_SPECS if not s.arithmetic]


# -- exact moments ------------------------------------------------------------

@pytest.mark.parametrize(
    "spec, mean, second",
    [
        (Uniform(lo=0.0, hi=2.0), 1.0, 4.0 / 3.0),
        (Deterministic(c=1.5), 1.5, 2.25),
        (Deterministic(c=0.3), 0.3, 0.09),
        (ParetoI(shape=3.0, scale=1.0 / 3.0), 0.5, 1.0 / 3.0),
        (Exponential(rate=2.0), 0.5, 0.5),
        # frozen from the quadrature oracle
        (Rayleigh(sigma=1.0), 1.2533141373155001, 2.0),
        (ChiSquare(k=1), 1.0, 3.0),
        (Beta(alpha=2.0, beta=3.0), 0.4, 0.2),
    ],
)
def test_exact_moments(spec, mean, second):
    m = spec.moments()
    assert m.mean == pytest.approx(mean, rel=1e-12)
    assert m.second_moment == pytest.approx(second, rel=1e-12)


def test_three_link_ratio_sum():
    # rayleigh(1) + chi_square(1) + beta(2,3) contributions sum to ~2.5479
    total = sum(
        s.moments().second_moment / (2.0 * s.moments().mean)
        for s in (Rayleigh(sigma=1.0), ChiSquare(k=1), Beta(alpha=2.0, beta=3.0))
    )
    assert total == pytest.approx(2.5478845608028653, rel=1e-12)
    assert abs(total - 2.5479) < 5e-5


def test_pareto_divergent_moments():
    assert ParetoI(shape=1.5, scale=1.0).moments().second_moment == math.inf
    assert math.isfinite(ParetoI(shape=1.5, scale=1.0).moments().mean)
    assert ParetoI(shape=0.8, scale=1.0).moments().mean == math.inf
    assert ParetoI(shape=2.0, scale=1.0).moments().second_moment == math.inf
    assert ParetoI(shape=1.5, scale=1.0).moment_fault() == "a divergent moment"


@pytest.mark.parametrize(
    "spec",
    [Exponential(rate=1e-200), Exponential(rate=5e-324), Uniform(lo=1e200, hi=1e201),
     Rayleigh(sigma=1e200), ChiSquare(k=10**200), Deterministic(c=1e200),
     ParetoI(shape=3.0, scale=1e200)],
    ids=str,
)
def test_moments_too_large_for_a_float_read_inf(spec):
    # finite moments whose float overflows: inf, never a division by zero
    assert spec.moments().second_moment == math.inf
    assert spec.moment_fault() == "a moment too large for a float"


def test_moment_fault_is_none_for_finite_moments():
    assert Exponential(rate=1e-150).moment_fault() is None
    assert ParetoI(shape=2.5, scale=1.0).moment_fault() is None


def test_quadrature_oracle_matches_closed_forms(scipy_law):
    for spec in CONTINUOUS_SPECS:
        m = spec.moments()
        pdf = scipy_law(spec).pdf
        hi = 1.0 if isinstance(spec, Beta) else np.inf
        lo = spec.scale if isinstance(spec, ParetoI) else 0.0
        mean_q, _ = integrate.quad(lambda x: x * pdf(x), lo, hi, limit=400)
        second_q, _ = integrate.quad(lambda x: x * x * pdf(x), lo, hi, limit=400)
        assert mean_q == pytest.approx(m.mean, rel=1e-9), str(spec)
        assert second_q == pytest.approx(m.second_moment, rel=1e-9), str(spec)


@given(
    st.sampled_from(["exponential", "uniform", "rayleigh", "chi_square", "beta", "pareto1", "deterministic"]),
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_jensen_inequality(family, a, b):
    spec = {
        "exponential": lambda: Exponential(rate=a),
        "uniform": lambda: Uniform(lo=min(a, b) * 0.5, hi=min(a, b) * 0.5 + max(a, b)),
        "rayleigh": lambda: Rayleigh(sigma=a),
        "chi_square": lambda: ChiSquare(k=int(a) + 1),
        "beta": lambda: Beta(alpha=a, beta=b),
        "pareto1": lambda: ParetoI(shape=2.0 + a, scale=b),
        "deterministic": lambda: Deterministic(c=a),
    }[family]()
    m = spec.moments()
    assert m.second_moment >= m.mean * m.mean * (1.0 - 1e-12)


# -- sampling -----------------------------------------------------------------

def test_inverse_transform_matches_quantile_formulas():
    # inverse-transform draws are a pure function of the stream's uniforms;
    # the transforms run in place, yet each bit is the out-of-place formula's
    # (numpy's special cases for scalar powers included)
    cases = [
        (Exponential(rate=2.0), lambda u: -np.log1p(-u) / 2.0),
        (Exponential(rate=0.3), lambda u: -np.log1p(-u) / 0.3),
        (Uniform(lo=0.0, hi=2.0), lambda u: 2.0 * u),
        (Uniform(lo=0.5, hi=3.7), lambda u: 0.5 + (3.7 - 0.5) * u),
        (Rayleigh(sigma=1.0), lambda u: np.sqrt(-2.0 * np.log1p(-u))),
        (Rayleigh(sigma=0.35), lambda u: 0.35 * np.sqrt(-2.0 * np.log1p(-u))),
        (ParetoI(shape=3.0, scale=0.5), lambda u: 0.5 * (1.0 - u) ** (-1.0 / 3.0)),
        *[(ParetoI(shape=a, scale=0.7), lambda u, a=a: 0.7 * (1.0 - u) ** (-1.0 / a))
          for a in (0.5, 1.0, 2.0, 3.0)],
        (Deterministic(c=1.5), lambda u: np.full_like(u, 1.5)),
    ]
    for spec, quantile in cases:
        u = RngStream(11, "q").uniforms(1000)
        draws = spec.sample_batch(RngStream(11, "q"), 1000)
        assert draws.tobytes() == quantile(u).tobytes(), str(spec)


class _CountingStream(RngStream):
    """A stream that counts the uniforms drawn from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.drawn = 0

    def uniforms(self, n):
        self.drawn += n
        return super().uniforms(n)


@pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (0.8, 2.0), (2.5, 1.0), (1.7, _BETA_PRODUCT_MAX_B)])
def test_whole_beta_is_a_product_of_powered_uniforms(alpha, beta):
    # b blocks of n uniforms, the i-th raised to 1/(alpha+i), multiplied in
    # order: drawing the later factors in blocks changes no bit, and a draw
    # takes exactly b uniforms
    n, b = _BETA_BLOCK + 1000, int(beta)
    rng = _CountingStream(5, "product")
    draws = Beta(alpha=alpha, beta=beta).sample_batch(rng, n)
    assert rng.drawn == b * n
    fresh = RngStream(5, "product")
    expected = fresh.uniforms(n) ** (1.0 / alpha)
    for i in range(1, b):
        expected = expected * fresh.uniforms(n) ** (1.0 / (alpha + i))
    assert draws.tobytes() == expected.tobytes()
    assert rng.uniforms(10).tobytes() == fresh.uniforms(10).tobytes()


def test_chi_square_one_is_a_squared_normal():
    draws = ChiSquare(k=1).sample_batch(RngStream(5, "chi"), 1000)
    assert draws.tobytes() == (RngStream(5, "chi").generator.standard_normal(1000) ** 2).tobytes()


def test_exponential_quantile_midpoint_value():
    # u = 0.5 at rate 2 maps to -ln(0.5)/2
    assert -math.log1p(-0.5) / 2.0 == pytest.approx(0.34657359027997264, rel=1e-15)


def test_deterministic_sample_is_constant():
    rng = RngStream(3, "det")
    assert Deterministic(c=1.5).sample_batch(rng, 1)[0] == 1.5
    assert np.all(Deterministic(c=1.5).sample_batch(rng, 100) == 1.5)


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS, ids=str)
def test_kolmogorov_smirnov(spec, scipy_law):
    draws = spec.sample_batch(RngStream(2024, "ks", str(spec)), 100_000)
    result = stats.kstest(draws, scipy_law(spec).cdf)
    # 0.1% critical value: fail only on very strong evidence of a wrong law
    assert result.pvalue > 0.001, f"{spec}: KS p={result.pvalue}"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_empirical_moments_within_four_standard_errors(spec):
    n = 1_000_000
    draws = spec.sample_batch(RngStream(7, "moments", str(spec)), n)
    m = spec.moments()
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    se_second = (draws**2).std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - m.mean) <= 4.0 * se_mean + 1e-12, str(spec)
    assert abs((draws**2).mean() - m.second_moment) <= 4.0 * se_second + 1e-12, str(spec)


def test_uniform_mean_clt_bound():
    draws = Uniform(lo=0.0, hi=2.0).sample_batch(RngStream(5, "clt"), 1_000_000)
    assert abs(draws.mean() - 1.0) <= 0.002  # 3 sigma/sqrt(n) with sigma = 1/sqrt(3)


def test_samples_always_positive():
    for spec in ALL_SPECS:
        draws = spec.sample_batch(RngStream(13, "pos", str(spec)), 50_000)
        assert np.all(draws > 0.0), str(spec)


def test_sampling_is_deterministic_per_stream():
    for spec in (Beta(alpha=2.0, beta=3.0), Beta(alpha=0.8, beta=2.0), ChiSquare(k=1)):
        a = spec.sample_batch(RngStream(42, "s1"), 5000)
        b = spec.sample_batch(RngStream(42, "s1"), 5000)
        c = spec.sample_batch(RngStream(42, "s2"), 5000)
        assert np.array_equal(a, b), str(spec)
        assert not np.array_equal(a, c), str(spec)


# -- validation and literals ----------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: Exponential(rate=0.0),
        lambda: Exponential(rate=-1.0),
        lambda: Uniform(lo=-0.1, hi=1.0),
        lambda: Uniform(lo=2.0, hi=2.0),
        lambda: Uniform(lo=3.0, hi=1.0),
        lambda: Rayleigh(sigma=0.0),
        lambda: ChiSquare(k=0),
        lambda: ChiSquare(k=1.5),
        lambda: Beta(alpha=0.0, beta=1.0),
        lambda: Beta(alpha=1.0, beta=-2.0),
        lambda: ParetoI(shape=0.0, scale=1.0),
        lambda: ParetoI(shape=1.0, scale=0.0),
        lambda: Deterministic(c=0.0),
        lambda: Deterministic(c=math.inf),
        lambda: Uniform(lo=True, hi=2.0),
        lambda: Uniform(lo="0", hi=2.0),
        lambda: Uniform(lo=-1, hi=2.0),
        lambda: Uniform(lo=math.nan, hi=2.0),
    ],
)
def test_invalid_parameters_rejected(build):
    with pytest.raises(InvalidParameter):
        build()


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: Exponential(rate=10**400), "rate must be a positive finite number"),
        (lambda: Uniform(lo=10**400, hi=2.0), "lo must be a nonnegative finite number"),
        (lambda: from_literal({"type": "pareto1", "shape": 3, "scale": -(10**400)}),
         "scale must be a positive finite number"),
        (lambda: ChiSquare(k=10**400), "k must be a positive integer"),
    ],
)
def test_integers_too_large_for_a_float_are_rejected(build, fragment):
    # float() overflows on these; the rules must not let OverflowError escape
    with pytest.raises(InvalidParameter, match=fragment):
        build()


def test_literal_round_trip():
    for spec in ALL_SPECS:
        assert from_literal(spec.to_literal()) == spec


def test_literal_errors():
    with pytest.raises(InvalidParameter):
        from_literal({"type": "zipf", "s": 2})
    with pytest.raises(InvalidParameter):
        from_literal({"type": "exponential"})
    with pytest.raises(InvalidParameter):
        from_literal({"type": "exponential", "rate": 1.0, "scale": 2.0})
    with pytest.raises(InvalidParameter):
        from_literal(["exponential", 1.0])
    # a bool is not a number, even though Python counts it as an int
    with pytest.raises(InvalidParameter, match="rate must be a positive finite number"):
        from_literal({"type": "exponential", "rate": True})
    with pytest.raises(InvalidParameter, match="k must be a whole number"):
        from_literal({"type": "chi_square", "k": True})
    with pytest.raises(InvalidParameter, match="k must be a whole number"):
        from_literal({"type": "chi_square", "k": 1.5})
    # integral floats are accepted for the chi-square dof
    assert from_literal({"type": "chi_square", "k": 3.0}) == ChiSquare(k=3)


@pytest.mark.parametrize("alpha, beta, mean, second", [(1e200, 1e200, 0.5, 0.25), (1e155, 3.0, 1.0, 1.0),
                                                      (1e100, 1e160, 1e-60, 1e-120)])
def test_beta_moments_of_huge_shapes_stay_finite(alpha, beta, mean, second):
    # the products a(a+1) and (a+b)(a+b+1) overflow; E[Y^2] does not
    spec = Beta(alpha=alpha, beta=beta)
    assert spec.moments().mean == mean
    assert spec.moments().second_moment == pytest.approx(second, rel=1e-15)
    assert spec.moment_fault() is None


def test_beta_moments_keep_their_bits_and_refuse_a_sum_past_the_float_range():
    assert Beta(alpha=2.0, beta=3.0).moments().second_moment == 2.0 * 3.0 / (5.0 * 6.0)
    assert Beta(alpha=1e150, beta=1e150).moments().second_moment == 1e150 * (1e150 + 1.0) / (2e150 * (2e150 + 1.0))
    # numpy's sampler returns zeros once a + b overflows, so that law stays refused
    assert Beta(alpha=1e308, beta=1e308).moment_fault() == "a moment too large for a float"
