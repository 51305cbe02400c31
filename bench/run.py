"""versionage benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tree-sweeps --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/`` (nothing is installed).  ``--trace 0`` measures the
end-to-end metrics of BENCHMARK.json with tracing off; ``--trace 1`` measures
the per-layer metrics: isolated timings of public calls, then rounds without
and with span tracing (their difference is the tracing overhead).  Both modes
check the program's outputs, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are scaled to a reference host speed (``host.py``): the
host's own speed drifts by more than the bounds on the machines this is run
on.

Work files go to ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import host

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: setup is timed in this many fresh processes (after one discarded warm-up)
SETUP_REPEATS = 9


def _fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "versionage", "__init__.py")):
        _fail(f"no versionage sources under {SRC}")
    sys.path.insert(0, SRC)
    import versionage

    if not os.path.abspath(versionage.__file__).startswith(SRC + os.sep):
        _fail(f"imported versionage from {versionage.__file__}, not from {SRC}")


def _setup_child(args) -> None:
    """Time the import of versionage plus building the workload's configs."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.work_dir).build()
    print(repr(time.perf_counter() - t0))


def _setup_seconds(args, work: str) -> tuple[float, float]:
    """Median set-up seconds of fresh processes, scaled to the reference host,
    and the median host factor.  The host is sampled in this process while
    it waits for each child."""
    scaled, factors = [], []
    for i in range(SETUP_REPEATS + 1):
        child_dir = os.path.join(work, f"setup{i}")
        with host.Sampler() as sampler:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-child",
                 "--workload", args.workload, "--seed", str(args.seed), "--work-dir", child_dir],
                capture_output=True, text=True, timeout=120,
            )
        if proc.returncode != 0:
            _fail(f"setup process failed:\n{proc.stderr}")
        if i > 0:
            factors.append(sampler.factor())
            scaled.append(float(proc.stdout.strip().splitlines()[-1]) / factors[-1])
    return statistics.median(scaled), statistics.median(factors)


@dataclass
class Round:
    out_dir: str
    results: list  # (exit code, captured stdout) per CLI call
    wall: float  # seconds spent in the CLI calls, host samples taken out
    host_factor: float | None  # host speed during the round, when sampled
    layers: dict | None  # traced per-layer figures of this round


def _rounds(workload, work: str, prefix: str, seconds: float, min_rounds: int,
            tracer=None, probe_totals=None, sample_host=False) -> list[Round]:
    """Whole rounds until ``seconds`` have passed; only the CLI calls are timed.

    With ``sample_host``, each round's CLI calls run under a host sampler.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        out_dir = os.path.join(work, f"{prefix}{len(rounds)}")
        os.makedirs(out_dir)
        if tracer is not None:
            tracer.reset()
        sampler = host.Sampler() if sample_host else contextlib.nullcontext()
        with sampler:
            t0 = time.perf_counter()
            results = workload.round(out_dir)
            wall = time.perf_counter() - t0
        host_factor = None
        if sample_host:
            wall -= sampler.in_work
            host_factor = sampler.factor()
        layers = None
        if tracer is not None:
            layers = _traced_layers(tracer.totals(), probe_totals)
        rounds.append(Round(out_dir, results, wall, host_factor, layers))
    return rounds


def _traced_layers(totals: dict, probe_totals: dict) -> dict[str, float]:
    """Per-layer figures of one traced round: the round's own totals per span
    name, or the probe's for a traced call the workload never made."""
    t = {**probe_totals, **totals}
    gaps = t["renewal.event_times_until"]
    return {
        "rng.reseed.calls": t["rng.reseed"]["calls"],
        "rng.uniforms.draws": t["rng.uniforms"]["draws"],
        "distributions.sample_batch.self_s": t["distributions.sample_batch"]["self_s"],
        "renewal.event_times_until.self_s": gaps["self_s"],
        "renewal.event_times_until.calls": gaps["calls"],
        "renewal.gap_use_ratio": gaps["events_in_horizon"] / gaps["gaps_drawn"],
        "renewal.stream_events": t["renewal.stream"]["calls"],
        "renewal.stream.self_s": t["renewal.stream"]["self_s"],
        "renewal.verify_martingale.self_s": t["renewal.verify_martingale"]["self_s"],
        "renewal.verify_recurrence.self_s": t["renewal.verify_recurrence"]["self_s"],
        "renewal.verify_window.self_s": t["renewal.verify_window"]["self_s"],
        "simulator.monte_carlo.self_s": t["simulator.monte_carlo"]["self_s"],
        "simulator.simulate_once.self_s": t["simulator.simulate_once"]["self_s"],
        "experiments.sweep.self_s": t["experiments.sweep"]["self_s"],
        "cli.self_s": t["cli"]["self_s"],
    }


def _check(workload, rounds: list[Round]) -> tuple[int, list[str]]:
    """Failed operations of one round, and problems that make the run incorrect.

    Every round uses the same seed and must write the same bytes, so the
    statistical gates are counted on the first round only: ``failed`` then
    does not depend on how many rounds fit into ``--seconds``.  The
    deterministic checks run on every round.
    """
    import workloads

    problems: list[str] = []
    digests = {workloads.dir_digest(r.out_dir)[0] for r in rounds}
    if len(digests) != 1:
        problems.append(f"{len(rounds)} rounds with one seed wrote {len(digests)} different outputs")
    checks = [workload.check(r.out_dir, r.results) for r in rounds]
    for c in checks:
        problems += c.problems
    problems += workload.cross_check(rounds[0].out_dir)
    return checks[0].failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_child:
        _setup_child(args)
        return 0

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    _import_program()

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.build()

    values: dict[str, float] = {}
    if args.trace == 0:
        values["setup_s"], setup_factor = _setup_seconds(args, work)
        rounds = _rounds(workload, work, "round", args.seconds, min_rounds=2, sample_host=True)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds_per_s = statistics.median(r.host_factor / r.wall for r in rounds)
        raw_rounds_per_s = statistics.median(1.0 / r.wall for r in rounds)
        print(f"host factor {setup_factor:.4f} (set-up), "
              f"{statistics.median(r.host_factor for r in rounds):.4f} (rounds); "
              f"unscaled {raw_rounds_per_s:.6g} rounds/s")
        values["replications_per_s"] = workload.replications_per_round * rounds_per_s
        values["paths_per_s"] = workload.paths_per_round * rounds_per_s
    else:
        import layers
        import spans

        values.update(layers.measure(args.seed))
        plain = _rounds(workload, work, "plain", args.seconds / 2, min_rounds=1)
        general = workloads.general_network()
        tracer = spans.Tracer()
        tracer.calibrate()
        spans.install(tracer)
        try:
            spans.probe(general)
            probe_totals = tracer.totals()
            traced = _rounds(workload, work, "traced", args.seconds / 2, min_rounds=1,
                             tracer=tracer, probe_totals=probe_totals)
        finally:
            tracer.restore()
        tracer.dump(os.path.join(work, "spans.jsonl"))
        for name in traced[0].layers:
            values[name] = statistics.median(r.layers[name] for r in traced)
        values["cli.output_bytes"] = workloads.dir_digest(plain[0].out_dir)[1]
        values["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain) - 1.0
        )
        rounds = plain + traced

    failed, problems = _check(workload, rounds)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        _fail(f"measured {sorted(values)} but BENCHMARK.json lists {sorted(names)}", 3)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{len(rounds)} rounds, {failed} of {workload.ops_per_round} operations failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
