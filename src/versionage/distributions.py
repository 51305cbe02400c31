"""Inter-renewal-time distributions: exact moments and batch sampling.

Each distribution is an immutable value object with closed-form first and
second moments.  A divergent moment is represented as ``math.inf`` rather than
an error: the simulator can still drive a renewal process with infinite
variance, while the analytic engine refuses such inputs.  A finite moment too
large for a float also reads ``math.inf``, and a positive mean too small for
one reads 0; :meth:`Distribution.moment_fault` tells these apart.
Parameters are stored as validated, as floats (chi-square's k as an int), so
equal laws write equal literals whatever number type built them.

Sampling is batch-first.  Families with a closed-form quantile (exponential,
uniform, rayleigh, pareto1, deterministic) use the inverse transform, so each
draw consumes exactly one uniform and is a deterministic function of the
stream state.  The transforms run in place on the batch of uniforms, one
numpy operation at a time in the order the quantile formula reads.
Beta(a, b) with a whole b up to a small cap also consumes a fixed number of
uniforms: b per draw, raised to powers and multiplied (Devroye 1986, ch.
IX), so it does not depend on numpy's beta algorithm.  Chi-square with one
degree of freedom is a squared standard normal.  Other beta and chi-square
draws come from numpy's own samplers; those and the normal run on the
stream's SFC64 generator with a consumption that varies per draw, which is
safe because every renewal stream owns its own generator.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .rng import RngStream

__all__ = [
    "Moments",
    "Distribution",
    "Exponential",
    "Uniform",
    "Rayleigh",
    "ChiSquare",
    "Beta",
    "ParetoI",
    "Deterministic",
    "from_literal",
    "LITERAL_TYPES",
    "positive_number",
    "nonnegative_number",
    "whole_number",
    "check_seed",
]

@dataclass(frozen=True)
class Moments:
    """Exact mean and second moment; either may be ``math.inf``."""

    mean: float
    second_moment: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.mean) and math.isfinite(self.second_moment)

    @property
    def mean_backward_recurrence(self) -> float:
        """E[Y^2] / (2 E[Y]): the long-run mean backward recurrence time of a
        renewal process with these gaps, one link's share of the age."""
        return self.second_moment / (2.0 * self.mean)


class Distribution(ABC):
    """A nonnegative inter-renewal-time distribution."""

    #: literal tag used in config files
    type_name: str = ""
    #: True when the support lies on a lattice {0, d, 2d, ...}
    arithmetic: bool = False

    @abstractmethod
    def moments(self) -> Moments:
        """Exact analytic moments, never an approximation."""

    @abstractmethod
    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        """n i.i.d. draws consumed from ``rng`` in a deterministic pattern."""

    def _moments_diverge(self) -> bool:
        """True when E[Y] or E[Y^2] is infinite, not just too large for a float."""
        return False

    def moment_fault(self) -> str | None:
        """None when both moments are finite floats, the mean not 0; else what reads inf or 0."""
        m = self.moments()
        if m.is_finite:
            return None if m.mean else "a mean that underflows to 0"
        return "a divergent moment" if self._moments_diverge() else "a moment too large for a float"

    def to_literal(self) -> dict:
        """Config-file literal: a ``type`` tag plus named parameters."""
        params = {k: v for k, v in self.__dict__.items()}
        return {"type": self.type_name, **params}

    def __str__(self) -> str:
        params = ", ".join(f"{k}={v:g}" for k, v in self.__dict__.items())
        return f"{self.type_name}({params})"


def _finite_real(value) -> float | None:
    """``value`` as a finite float, or None for a bool, a non-number, a NaN,
    an infinity or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def positive_number(name: str, value) -> float:
    """``value`` as a float; it must be a positive finite real number, not a bool."""
    x = _finite_real(value)
    if x is None or not x > 0:
        raise InvalidParameter(f"{name} must be a positive finite number, got {value!r}")
    return x


def nonnegative_number(name: str, value) -> float:
    """``value`` as a float; it must be a finite real number >= 0, not a bool."""
    x = _finite_real(value)
    if x is None or not x >= 0:
        raise InvalidParameter(f"{name} must be a nonnegative finite number, got {value!r}")
    return x


def whole_number(name: str, value) -> int:
    """``value`` as an int: an integer, or an integral finite float such as 2e4.
    Bools, fractions and non-numbers are rejected."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if isinstance(value, numbers.Integral) or (math.isfinite(value) and float(value).is_integer()):
            return int(value)
    raise InvalidParameter(f"{name} must be a whole number, got {value!r}")


def check_seed(master_seed) -> int:
    """``master_seed`` as an int, if a whole number 0 <= it < 2**64: random
    streams pack a seed mod 2**64."""
    seed = whole_number("a master seed", master_seed)
    if not 0 <= seed < 1 << 64:
        raise InvalidParameter(f"a master seed must be in 0 <= seed < 2**64, got {seed}")
    return seed


@dataclass(frozen=True, eq=True)
class Exponential(Distribution):
    """Exponential with the given rate (mean 1/rate)."""

    rate: float
    type_name = "exponential"

    def __post_init__(self):
        object.__setattr__(self, "rate", positive_number("rate", self.rate))

    def moments(self) -> Moments:
        # the square underflows to 0 below a rate of about 1.5e-154
        square = self.rate * self.rate
        return Moments(1.0 / self.rate, 2.0 / square if square else math.inf)

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        u = rng.uniforms(n)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u /= self.rate
        return u


@dataclass(frozen=True, eq=True)
class Uniform(Distribution):
    """Uniform on [lo, hi] with 0 <= lo < hi."""

    lo: float
    hi: float
    type_name = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "lo", nonnegative_number("lo", self.lo))
        object.__setattr__(self, "hi", positive_number("hi", self.hi))
        if not self.hi > self.lo:
            raise InvalidParameter(f"hi must exceed lo, got [{self.lo}, {self.hi}]")

    def moments(self) -> Moments:
        lo, hi = self.lo, self.hi
        return Moments((lo + hi) / 2.0, (lo * lo + lo * hi + hi * hi) / 3.0)

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        u = rng.uniforms(n)
        u *= self.hi - self.lo
        u += self.lo
        return u


@dataclass(frozen=True, eq=True)
class Rayleigh(Distribution):
    """Rayleigh with scale sigma."""

    sigma: float
    type_name = "rayleigh"

    def __post_init__(self):
        object.__setattr__(self, "sigma", positive_number("sigma", self.sigma))

    def moments(self) -> Moments:
        s = self.sigma
        return Moments(s * math.sqrt(math.pi / 2.0), 2.0 * s * s)

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        u = rng.uniforms(n)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u *= -2.0
        np.sqrt(u, out=u)
        u *= self.sigma
        return u


@dataclass(frozen=True, eq=True)
class ChiSquare(Distribution):
    """Chi-square with k degrees of freedom."""

    k: int
    type_name = "chi_square"

    def __post_init__(self):
        k = whole_number("k", self.k)
        if k < 1 or _finite_real(k) is None:
            raise InvalidParameter(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", k)

    def moments(self) -> Moments:
        k = float(self.k)
        return Moments(k, k * (k + 2.0))

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        if self.k == 1:
            z = rng.generator.standard_normal(n)
            return np.square(z, out=z)
        return rng.generator.chisquare(self.k, n)


#: largest whole beta drawn as a product of powered uniforms; above it numpy's
#: two-gamma sampler is as fast (per 1024 draws on a 2-vCPU Xeon, numpy 2.4.6:
#: b = 4 takes 59-67 us against numpy's 68-95 us, b = 5 72-105 us against 66-110 us)
_BETA_PRODUCT_MAX_B = 4
#: draws per block of uniforms for the product's later factors, so a batch
#: holds one n-sized array beside a block
_BETA_BLOCK = 1 << 16


@dataclass(frozen=True, eq=True)
class Beta(Distribution):
    """Beta on [0, 1] with shape parameters alpha, beta."""

    alpha: float
    beta: float
    type_name = "beta"

    def __post_init__(self):
        object.__setattr__(self, "alpha", positive_number("alpha", self.alpha))
        object.__setattr__(self, "beta", positive_number("beta", self.beta))

    def moments(self) -> Moments:
        a, b = self.alpha, self.beta
        mean = a / (a + b)
        denominator = (a + b) * (a + b + 1.0)
        if math.isinf(denominator) and math.isfinite(a + b):
            # shapes near 1e155 and up overflow the products; this order does
            # not, but would change the last bit of the finite moments below.
            # A sum past the float range still reads nan and is refused:
            # numpy's sampler returns zeros there
            return Moments(mean, mean * ((a + 1.0) / (a + b + 1.0)))
        return Moments(mean, a * (a + 1.0) / denominator)

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        a, b = self.alpha, self.beta
        if not (b.is_integer() and b <= _BETA_PRODUCT_MAX_B):
            return rng.generator.beta(a, b, n)
        # Beta(a, b) = U_0^(1/a) U_1^(1/(a+1)) ... U_(b-1)^(1/(a+b-1)) for
        # whole b; factor i takes uniforms i*n .. (i+1)*n - 1 of the stream
        x = rng.uniforms(n)
        x **= 1.0 / a
        for i in range(1, int(b)):
            power = 1.0 / (a + i)
            for lo in range(0, n, _BETA_BLOCK):
                u = rng.uniforms(min(_BETA_BLOCK, n - lo))
                u **= power
                x[lo:lo + u.size] *= u
        return x


@dataclass(frozen=True, eq=True)
class ParetoI(Distribution):
    """Pareto Type I with tail index ``shape`` and minimum ``scale``.

    The mean diverges for shape <= 1 and the second moment for shape <= 2;
    divergent moments are reported as ``math.inf``.
    """

    shape: float
    scale: float
    type_name = "pareto1"

    def __post_init__(self):
        object.__setattr__(self, "shape", positive_number("shape", self.shape))
        object.__setattr__(self, "scale", positive_number("scale", self.scale))

    def moments(self) -> Moments:
        a, m = self.shape, self.scale
        mean = a * m / (a - 1.0) if a > 1.0 else math.inf
        second = a * m * m / (a - 2.0) if a > 2.0 else math.inf
        return Moments(mean, second)

    def _moments_diverge(self) -> bool:
        return self.shape <= 2.0

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        u = rng.uniforms(n)
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.shape
        u *= self.scale
        return u


@dataclass(frozen=True, eq=True)
class Deterministic(Distribution):
    """Point mass at c.  Arithmetic: the renewal limit theorems exclude it,
    so analytic results over deterministic links carry a warning."""

    c: float
    type_name = "deterministic"
    arithmetic = True

    def __post_init__(self):
        object.__setattr__(self, "c", positive_number("c", self.c))

    def moments(self) -> Moments:
        return Moments(self.c, self.c * self.c)

    def sample_batch(self, rng: RngStream, n: int) -> np.ndarray:
        return np.full(n, self.c)


LITERAL_TYPES: dict[str, type] = {
    cls.type_name: cls
    for cls in (Exponential, Uniform, Rayleigh, ChiSquare, Beta, ParetoI, Deterministic)
}


def from_literal(obj: dict) -> Distribution:
    """Build a distribution from its config-file literal.

    A literal is an object with a ``type`` tag and the named numeric
    parameters of that family, e.g. ``{"type": "uniform", "lo": 0, "hi": 2}``.
    """
    if not isinstance(obj, dict):
        raise InvalidParameter(f"distribution literal must be an object, got {obj!r}")
    tag = obj.get("type")
    if tag not in LITERAL_TYPES:
        known = "|".join(sorted(LITERAL_TYPES))
        raise InvalidParameter(f"unknown distribution type {tag!r} (expected {known})")
    wanted = [field.name for field in dataclasses.fields(LITERAL_TYPES[tag])]
    extra = set(obj) - set(wanted) - {"type"}
    if extra:
        raise InvalidParameter(f"{tag}: unexpected parameters {sorted(extra)}")
    missing = [p for p in wanted if p not in obj]
    if missing:
        raise InvalidParameter(f"{tag}: missing parameters {missing}")
    return LITERAL_TYPES[tag](**{p: obj[p] for p in wanted})
