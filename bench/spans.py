"""Span tracing around the public calls of each versionage layer.

The wrappers live here, not in the package: :func:`install` replaces each
public function or method with a timing wrapper at every place a caller looks
the name up (for example ``versionage.simulator.event_times_until``, which is
the binding the tree engine calls), and :meth:`Tracer.restore` puts the
originals back.

Every wrapper keeps a stack of open spans, so a span's self time is its
duration minus the time covered by its child spans.  Coarse spans (CLI calls,
sweeps, ``monte_carlo``, ``simulate_once``, verifiers, network builds) are
kept as ``(id, name, start, end, parent id)`` records and written out by
:meth:`Tracer.dump`.  Hot spans, entered once per gap batch, reseed or event,
are only summed per name: a record per ``RenewalStream.pop`` would hold
millions of tuples per round.

A wrapper costs time of its own, part of it inside the span it times and part
in its parent's self time.  :meth:`Tracer.calibrate` measures both parts on
an empty call, and :meth:`Tracer.totals` takes them out of every self time.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

#: spans entered per gap batch, reseed or event; summed per name, not recorded
#: one by one.  The calibration's empty call is one too, so that it times the
#: wrapper these spans use.
HOT = frozenset({
    "distributions.sample_batch", "renewal.event_times_until", "renewal.stream",
    "rng.stream_init", "rng.reseed", "rng.uniforms", "calibrate.child",
})

#: empty calls per calibration repeat, and the number of repeats
CALIBRATION_CALLS = 100_000
CALIBRATION_REPEATS = 5


class _Empty:
    """Calibration target: an empty method, called the way ``RenewalStream.pop``
    is."""

    def call(self):
        return None


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [start, child seconds, child calls, span id]
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._acc: dict[str, list] = {}  # name -> [calls, seconds, child calls]
        self.counts: dict[str, Counter] = defaultdict(Counter)  # name -> observed counters
        #: wrapper seconds per call inside the span, and charged to the parent
        self.cost_self = 0.0
        self.cost_parent = 0.0

    def reset(self) -> None:
        """Forget everything recorded so far (spans, self times, counters)."""
        self.spans.clear()
        self.counts.clear()
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name that was entered: ``calls``, ``self_s`` net of the
        calibrated wrapper cost, and the counters its observer keeps."""
        out = {}
        for name, (calls, seconds, child_calls) in self._acc.items():
            if calls:
                self_s = seconds - calls * self.cost_self - child_calls * self.cost_parent
                out[name] = {"calls": calls, "self_s": self_s, **self.counts[name]}
        return out

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """A wrapper timing ``fn`` as span ``name``.  ``observe(counts, args,
        result)`` updates the span's counters after the call when given; its
        own time is charged to no span."""
        clock = time.perf_counter
        stack = self._stack
        ids = self._ids
        acc = self._acc.setdefault(name, [0, 0.0, 0])
        counts = self.counts
        record = None if name in HOT else self.spans.append

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, 0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                acc[0] += 1
                acc[1] += duration - frame[1]
                acc[2] += frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                    parent[2] += 1
                if record is not None:
                    record((frame[3], name, frame[0], end, parent[3] if parent else -1))
            if observe is not None:
                t0 = clock()
                observe(counts[name], args, result)
                if parent is not None:
                    parent[1] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calibrate(self) -> None:
        """Measure the wrapper's own cost per call on an empty method.

        An empty wrapped method's self time is all wrapper (``cost_self``).
        A parent span that makes ``CALIBRATION_CALLS`` of them shows more self
        time than the same loop over the bare method takes untraced; the
        excess per call is ``cost_parent``.  Both are medians over
        ``CALIBRATION_REPEATS``.
        """
        probe = Tracer()
        bare_obj = _Empty()
        traced_obj = type("_TracedEmpty", (), {
            "call": probe.wrap("calibrate.child", _Empty.call)
        })()
        calls = range(CALIBRATION_CALLS)

        def loop(obj):
            for _ in calls:
                obj.call()

        parent = probe.wrap("calibrate.parent", loop)
        inside, charged = [], []
        for _ in range(CALIBRATION_REPEATS):
            probe.reset()
            t0 = time.perf_counter()
            loop(bare_obj)
            bare = time.perf_counter() - t0
            parent(traced_obj)
            totals = probe.totals()
            inside.append(totals["calibrate.child"]["self_s"] / CALIBRATION_CALLS)
            charged.append((totals["calibrate.parent"]["self_s"] - bare) / CALIBRATION_CALLS)
        self.cost_self = statistics.median(inside)
        self.cost_parent = statistics.median(charged)

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the recorded spans, then the totals per name, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")
            for name, total in sorted(self.totals().items()):
                fh.write(json.dumps({"total": name, **total}) + "\n")
            fh.write(json.dumps({"cost_self": self.cost_self, "cost_parent": self.cost_parent}) + "\n")


def _count_uniforms(counts: Counter, args, result) -> None:
    counts["draws"] += int(args[1])


def _count_gap_use(counts: Counter, args, result) -> None:
    horizon = args[2]
    counts["events_in_horizon"] += int(np.searchsorted(result, horizon, side="right"))
    counts["gaps_drawn"] += int(result.size)


def install(tracer: Tracer) -> None:
    """Wrap every traced public call of versionage, where callers look it up."""
    import versionage
    from versionage import analytic, cli, distributions, experiments, network, renewal
    from versionage import rng, simulator

    tracer.patch(cli, "run", "cli")

    for owner in (experiments, cli):
        tracer.patch(owner, "sweep_network_family", "experiments.sweep")
    for owner in (simulator, experiments, cli, versionage):
        tracer.patch(owner, "monte_carlo", "simulator.monte_carlo")
    for owner in (simulator, versionage):
        tracer.patch(owner, "simulate_once", "simulator.simulate_once")
    for owner in (simulator, renewal):
        tracer.patch(owner, "event_times_until", "renewal.event_times_until", _count_gap_use)
    tracer.patch(renewal.RenewalStream, "pop", "renewal.stream")

    for fn, name in (
        ("verify_martingale_zero_mean", "renewal.verify_martingale"),
        ("verify_backward_recurrence_limit", "renewal.verify_recurrence"),
        ("verify_windowed_count_limit", "renewal.verify_window"),
    ):
        for owner in (renewal, cli, versionage):
            tracer.patch(owner, fn, name)

    for cls in distributions.LITERAL_TYPES.values():
        tracer.patch(cls, "sample_batch", "distributions.sample_batch")

    tracer.patch(rng.RngStream, "__init__", "rng.stream_init")
    tracer.patch(rng.RngStream, "reseed", "rng.reseed")
    tracer.patch(rng.RngStream, "uniforms", "rng.uniforms", _count_uniforms)

    for owner in (analytic, experiments, cli, versionage):
        tracer.patch(owner, "expected_version_age", "analytic.expected_version_age")
    tracer.patch(network.CacheNetwork, "__init__", "network.build")


def probe(general_network) -> None:
    """One small call into every traced layer but the CLI.

    It runs once, on its own, before the traced rounds.  A workload's
    figures come from its own calls; where a workload never makes a traced
    call, the figure is the probe's, so that every layer is measured on
    every workload.  Names are looked up at call time so the installed
    wrappers are the ones called.
    """
    from versionage import Exponential, experiments, renewal, simulator

    experiments.sweep_network_family(
        "probe", [1, 2], experiments.fig6_network, iterations=2, horizon=20.0, seed=1
    )
    simulator.simulate_once(general_network, 20.0, 1, iteration=0)
    exp = Exponential(rate=1.0)
    renewal.verify_martingale_zero_mean(exp, [10.0], 10_000, master_seed=1)
    renewal.verify_backward_recurrence_limit(exp, 50.0, 10_000, master_seed=1)
    renewal.verify_windowed_count_limit(exp, exp, 50.0, 10_000, master_seed=1)
