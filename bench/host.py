"""Host speed, sampled while the measured work runs.

On the shared virtual machines this benchmark is run on, the host's speed
drifts by 15-25% over minutes and by up to 40% from one second to the next:
other tenants take cache, memory bandwidth and core time.  The process's CPU
time drifts with its wall time, so neither clock alone separates the
program's speed from the host's.

A fixed snippet of work, timed on its own, tracks the host.  While a
:class:`Sampler` is active, a ``SIGALRM`` every :data:`PERIOD_S` seconds runs
the snippet in the main thread, between two bytecodes of the measured work.
The host factor is the snippet's mean time over :data:`REFERENCE_S`, and a
measured time divided by it reads as it would on a host where the snippet
takes :data:`REFERENCE_S`.  The snippets' own time is taken out of the
measured time first.  Work done in a child process is sampled the same way
from the parent while it waits for the child.  The mean, not the median:
the measured time adds up the host's slow moments too, and over 42 rounds
of ``general-simulate`` the mean cut the spread of scaled round times to
0.06 where the median left 0.15.

The snippet imports nothing of versionage, so no change to the program moves
it.  It does the two kinds of work the workloads do: a pure-Python heap loop
(the event loop) and numpy calls on 1024-element arrays (the gap batches).
It allocates almost nothing, so it does not raise the process's peak RSS.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

#: snippet seconds on the machine of the README's reference figures
REFERENCE_S = 0.0005
#: seconds between two samples while a Sampler is active
PERIOD_S = 0.05

_SMALL = np.random.default_rng(0).random(1024)


def snippet_seconds() -> float:
    """Wall seconds of one run of the snippet."""
    t0 = time.perf_counter()
    heap = [(float(i), i) for i in range(64)]
    for k in range(400):
        t, i = heap[0]
        heapq.heapreplace(heap, (t + 1.0 + (k % 13) * 0.37, i))
    for _ in range(20):
        times = np.cumsum(_SMALL)
        int(np.searchsorted(times, 100.0))
    return time.perf_counter() - t0


class Sampler:
    """Samples the host every :data:`PERIOD_S` seconds inside a ``with`` block.

    ``in_work`` is the snippets' seconds inside the block, to be taken out
    of the block's measured time.  One more sample is taken on entry, before
    the timer starts, so that :meth:`factor` has one even for a block shorter
    than :data:`PERIOD_S`.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.in_work = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        seconds = snippet_seconds()
        self.samples.append(seconds)
        self.in_work += seconds

    def __enter__(self) -> Sampler:
        self.samples = [snippet_seconds()]
        self.in_work = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_S
