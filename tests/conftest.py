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
    is read, recording the jobs each task holds and those of each task run.
    Shut down, it runs every task not yet read, as a real pool finishes its
    queue, unless told to cancel them."""

    def __init__(self, max_workers):
        self.workers, self.tasks, self.ran, self.unread = max_workers, [], [], []

    def submit(self, fn, jobs):
        self.tasks.append(list(jobs))
        pool = self

        class Future:
            def result(self):
                pool.unread.remove(self)
                pool.ran.append(list(jobs))
                return fn(jobs)

        self.unread.append(Future())
        return self.unread[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        while self.unread and not cancel_futures:
            self.unread[0].result()
        self.unread.clear()


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
