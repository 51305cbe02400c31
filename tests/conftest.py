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


class _LazyPool:
    """Stands in for the process pool: runs each task here when its result
    is read, counting the tasks submitted and not yet read, and recording
    the jobs each holds."""

    def __init__(self, max_workers):
        self.workers, self.pending, self.peak, self.tasks = max_workers, 0, 0, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, jobs):
        self.tasks.append(list(jobs))
        self.pending += 1
        self.peak = max(self.peak, self.pending)
        pool = self

        class Future:
            def result(self):
                pool.pending -= 1
                return fn(jobs)

        return Future()


@pytest.fixture
def lazy_pool(monkeypatch):
    """Put a :class:`_LazyPool` in place of every process pool; the list of
    pools built, in order."""
    from versionage import renewal

    made = []

    def pool(max_workers):
        made.append(_LazyPool(max_workers))
        return made[-1]

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", pool)
    return made


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that worker counts and the CLI's --threads
    default read."""
    from versionage import cli, renewal

    def use(n):
        for owner in (renewal, cli):
            monkeypatch.setattr(owner, "_usable_cpus", lambda: n)

    return use
