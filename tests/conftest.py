"""Shared fixtures."""

import signal

import pytest
from scipy import stats

from versionage import Beta, ChiSquare, Exponential, ParetoI, Rayleigh, Uniform

#: each continuous family's law as scipy.stats writes it, apart from versionage
SCIPY_LAWS = {
    Exponential: lambda d: stats.expon(scale=1.0 / d.rate),
    Uniform: lambda d: stats.uniform(loc=d.lo, scale=d.hi - d.lo),
    Rayleigh: lambda d: stats.rayleigh(scale=d.sigma),
    ChiSquare: lambda d: stats.chi2(d.k),
    Beta: lambda d: stats.beta(d.alpha, d.beta),
    ParetoI: lambda d: stats.pareto(d.shape, scale=d.scale),
}


@pytest.fixture
def scipy_law():
    """Map a continuous distribution to its frozen ``scipy.stats`` law, the
    independent oracle for its moments and its sampler."""
    return lambda spec: SCIPY_LAWS[type(spec)](spec)


@pytest.fixture
def alarm():
    """Arm an alarm of the given seconds that fails the test, so a draw that
    would never end fails instead of hanging the suite."""
    def expire(signum, frame):
        pytest.fail("still running when the alarm rang")

    old = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
