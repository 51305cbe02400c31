"""Command-line front end: analytic | simulate | verify | sweep.

Configs are JSON documents describing a cache network plus run settings:

{
  "nodes": ["src", "a", "b"],
  "source": "src",
  "source_dist": {"type": "pareto1", "shape": 3, "scale": 0.5},
  "links": [
    {"from": "src", "to": "a", "dist": {"type": "uniform", "lo": 0, "hi": 2}},
    {"from": "a", "to": "b", "dist": {"type": "exponential", "rate": 1}}
  ],
  "horizon": 1000.0, "iterations": 20000, "master_seed": 1,
  "targets": ["b"], "estimator": "terminal", "output": "run_out"
}

Distribution literals may also be written compactly on the command line as
``type:key=value,key=value`` (e.g. ``exponential:rate=1``).

Exit status: 0 on success, 1 on configuration or validation errors, 2 when a
statistical gate fails (a verifier z-score at or beyond 4, or a sweep whose
points stray beyond the 4-sigma budget).  Every emitted JSON file embeds the
config hash, master seed, and tool version; repeated runs with equal seeds
produce byte-identical outputs regardless of --threads, the worker processes
of simulate, sweep and verify, every usable CPU unless given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .analytic import expected_version_age
from .distributions import Beta, ChiSquare, Deterministic, Distribution, Exponential
from .distributions import ParetoI, Rayleigh, Uniform, from_literal, whole_number
from .errors import ConfigError, VersionAgeError
from .experiments import MAX_SWEEP_VALUES, STUDIES, sweep_network_family, sweep_study
from .network import CacheNetwork
from .renewal import DEFAULT_PATHS, Z_GATE, LimitCheck, RenewalLimits, WindowedCount, _usable_cpus, _workers
from .renewal import run_checks
# not called here, but bench/spans.py traces these verifiers under these names
from .renewal import verify_backward_recurrence_limit, verify_martingale_zero_mean  # noqa: F401
from .renewal import verify_windowed_count_limit  # noqa: F401
from .rng import check_seed
from .simulator import DEFAULT_ESTIMATOR, DEFAULT_HORIZON, DEFAULT_ITERATIONS, DEFAULT_SEED
from .simulator import ESTIMATORS, check_run, monte_carlo

SIMULATE_CSV_HEADER = "target,estimator,mean,stderr,iterations,horizon,seed"

#: config fields beside the topology, which CacheNetwork.from_dict parses
RUN_KEYS = ("horizon", "iterations", "master_seed", "targets", "estimator", "output")

#: standard battery for `verify` with no arguments
VERIFY_SPECS: tuple[Distribution, ...] = (
    Exponential(rate=1.0),
    Uniform(lo=0.0, hi=2.0),
    Rayleigh(sigma=1.0),
    ChiSquare(k=1),
    Beta(alpha=2.0, beta=3.0),
    ParetoI(shape=3.0, scale=1.0 / 3.0),
    Deterministic(c=1.0),
)

VERIFY_WINDOW_PAIRS: tuple[tuple[Distribution, Distribution], ...] = (
    (Exponential(rate=2.0), Exponential(rate=1.0)),
    (Exponential(rate=1.0), Uniform(lo=0.0, hi=2.0)),
    (Exponential(rate=1.0), Deterministic(c=1.0)),
)


@dataclass
class RunConfig:
    """A parsed run configuration; the network part is already validated."""

    network: CacheNetwork
    horizon: float
    iterations: int
    master_seed: int
    targets: list[str] | None
    estimator: str
    output: str | None


def parse_config(text: str, source_name: str = "<config>") -> RunConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source_name}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{source_name}: top level must be an object")
    try:
        return _run_config(obj)
    except VersionAgeError as exc:
        raise ConfigError(f"{source_name}: {exc}") from None


def _run_config(obj: dict) -> RunConfig:
    run = {key: obj.pop(key) for key in RUN_KEYS if key in obj}
    network = CacheNetwork.from_dict(obj)
    horizon = run.get("horizon", DEFAULT_HORIZON)
    if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
        raise ConfigError(f"'horizon' must be a number, got {horizon!r}")
    iterations = whole_number("'iterations'", run.get("iterations", DEFAULT_ITERATIONS))
    master_seed = check_seed(whole_number("'master_seed'", run.get("master_seed", DEFAULT_SEED)))
    estimator = run.get("estimator", DEFAULT_ESTIMATOR)
    targets = run.get("targets")
    if targets is not None and not (isinstance(targets, list) and targets
                                    and all(isinstance(t, str) for t in targets)):
        raise ConfigError("'targets' must be a nonempty list of node ids")
    output = run.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"'output' must be a string, got {output!r}")
    check_run(network, horizon, iterations, estimator, targets)
    return RunConfig(
        network=network,
        horizon=float(horizon),
        iterations=iterations,
        master_seed=master_seed,
        targets=targets,
        estimator=estimator,
        output=output,
    )


def load_config(path: str) -> tuple[RunConfig, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, source_name=path), _sha256(text)


def parse_spec_arg(arg: str) -> Distribution:
    """A distribution from a JSON literal or the compact type:k=v,k=v form."""
    text = arg.strip()
    if text.startswith("{"):
        try:
            literal = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad distribution literal {arg!r}: {exc.msg}") from None
    else:
        head, _, tail = text.partition(":")
        literal = {"type": head.strip()}
        for item in tail.split(",") if tail else ():
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(
                    f"bad distribution argument {arg!r}: expected type:key=value,..."
                )
            try:
                literal[key.strip()] = float(value)
            except ValueError:
                raise ConfigError(f"bad numeric value {value!r} in {arg!r}") from None
    try:
        return from_literal(literal)
    except VersionAgeError as exc:
        raise ConfigError(str(exc)) from None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _meta(config_hash: str, master_seed: int) -> dict:
    return {
        "tool": "versionage",
        "version": __version__,
        "master_seed": master_seed,
        "config_sha256": config_hash,
    }


def _outputs(config: str | None, *paths: str) -> tuple[str, ...]:
    """The result files, refused before any work if one is the config read
    or cannot be written."""
    for path in paths:
        if config and os.path.realpath(path) == os.path.realpath(config):
            raise ConfigError(f"output {path!r} would overwrite the config {config!r}")
    for path in paths:
        if not os.path.basename(path) or os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it names a directory")
        # _write creates the missing directories of the normalised path, so
        # the nearest existing one must be a directory and no '..' may step
        # out of a missing one, which the system would fail to resolve
        head, missing = os.path.dirname(path), []
        while head and not os.path.exists(head):
            head, tail = os.path.split(head)
            missing.append(tail)
        if not os.path.isdir(head or os.curdir) or os.pardir in missing:
            raise ConfigError(f"cannot write {path!r}: {os.path.dirname(path)!r} is not a directory "
                              "and cannot be made one")
    return paths


def _write(*files: tuple[str, str | dict]) -> None:
    """Write each (path, text or a dict as sorted JSON), creating parent
    directories, and say which files were written."""
    for path, content in files:
        if isinstance(content, dict):
            content = json.dumps(content, indent=2, sort_keys=True) + "\n"
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    print("wrote", " and ".join(path for path, _ in files))


# -- subcommands -----------------------------------------------------------------


def _cmd_analytic(args) -> int:
    cfg, config_hash = load_config(args.config)
    if args.out:
        _outputs(args.config, args.out)
    result = expected_version_age(cfg.network)
    print(f"network: {cfg.network!r}")
    print(f"source mean update interval: {result.source_mean:.6g}")
    print("per-link contribution  E[Y^2]/(2 E[Y]):")
    for (src, dst), contrib in result.contributions.items():
        print(f"  {src} -> {dst}: {contrib:.6g}")
    print("expected version age per node:")
    for node in cfg.network.nodes:
        print(f"  {node}: {result.per_node[node]:.6g}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    if args.out:
        payload = {
            "meta": _meta(config_hash, cfg.master_seed),
            "topology": cfg.network.to_dict(),
            "analytic": result.to_dict(),
        }
        _write((args.out, payload))
    return 0


def _run_settings(args, cfg: RunConfig | None) -> dict:
    """The run flags of simulate and sweep, each defaulting to the config's
    setting, else to the library's default."""
    base = ((cfg.horizon, cfg.iterations, cfg.master_seed, cfg.estimator) if cfg
            else (DEFAULT_HORIZON, DEFAULT_ITERATIONS, DEFAULT_SEED, DEFAULT_ESTIMATOR))
    flags = {"horizon": args.horizon, "iterations": args.iterations, "seed": args.seed, "estimator": args.estimator}
    return {name: default if given is None else given for (name, given), default in zip(flags.items(), base)}


def _cmd_simulate(args) -> int:
    cfg, config_hash = load_config(args.config)
    run = _run_settings(args, cfg)
    seed = run.pop("seed")
    targets = args.targets.split(",") if args.targets else cfg.targets
    out_base = args.out or cfg.output or "simulate_out"
    csv_path, json_path = _outputs(args.config, out_base + ".csv", out_base + ".json")

    outcomes = monte_carlo(cfg.network, targets=targets, master_seed=seed, threads=args.threads, **run)
    rows = []
    for node, oc in outcomes.items():
        print(
            f"{node}: mean={oc.mean:.6g} stderr={oc.stderr:.3g} "
            f"({oc.estimator}, {oc.iterations} iterations, horizon {oc.horizon:g})"
        )
        rows.append([node, oc.estimator, repr(oc.mean), repr(oc.stderr), oc.iterations, repr(oc.horizon), seed])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIMULATE_CSV_HEADER.split(","))
    writer.writerows(rows)
    payload = {
        "meta": _meta(config_hash, seed),
        "topology": cfg.network.to_dict(),
        "outcomes": {node: oc.to_dict() for node, oc in outcomes.items()},
    }
    _write((csv_path, buf.getvalue()), (json_path, payload))
    return 0


def _limit_report(kind: str, label: str, fields: dict, check: LimitCheck) -> tuple:
    detail = f"estimate={check.estimate:.5f} target={check.target:.5f}"
    values = {"estimate": check.estimate, "target": check.target, "stderr": check.stderr}
    return kind, label, detail, check.z, {**fields, **values}


def _verify_checks(specs, window_pairs, t_grid, t_large, paths, seed, threads):
    """Run the checks in report order, yielding for each one
    (check, label, printed detail, z, record fields).  Every check is
    validated before any runs, and all run in one :func:`run_checks` call,
    which starts at most one pool."""
    limits = [RenewalLimits(spec, t_grid, t_large, paths, seed) for spec in specs]
    windows = [WindowedCount(src, probe, t_large, paths, seed) for src, probe in window_pairs]
    results = run_checks(limits + windows, threads)
    for spec, (points, check) in zip(specs, results):
        fields = {"spec": spec.to_literal()}
        for p in points:
            yield ("martingale", str(spec), f"t={p.t:g} mean={p.mean:+.5f}", p.z,
                   {**fields, "t": p.t, "mean": p.mean, "stderr": p.stderr})
        yield _limit_report("recurrence-limit", str(spec), fields, check)
    for (src, probe), check in zip(window_pairs, results[len(limits):]):
        fields = {"source": src.to_literal(), "probe": probe.to_literal()}
        yield _limit_report("windowed-count", f"{src} | probe {probe}", fields, check)


def _cmd_verify(args) -> int:
    t_grid = _parse_values(args.t_grid)
    specs = [parse_spec_arg(s) for s in args.spec]
    window_pairs = [
        (parse_spec_arg(a), parse_spec_arg(b)) for a, b in (args.window or [])
    ]
    if not specs and not window_pairs:
        specs = list(VERIFY_SPECS)
        window_pairs = list(VERIFY_WINDOW_PAIRS)
    if args.out:
        _outputs(None, args.out)

    records = []
    for kind, label, detail, z, fields in _verify_checks(
        specs, window_pairs, t_grid, args.t_large, args.paths, args.seed, args.threads
    ):
        ok = abs(z) < Z_GATE
        print(f"{kind:18s} {label:42s} {detail} z={z:+.3f} {'PASS' if ok else 'FAIL'}")
        records.append({"check": kind, **fields, "z": z, "pass": ok})
    all_ok = all(rec["pass"] for rec in records)
    if args.out:
        request = {"paths": args.paths, "seed": args.seed, "t_large": args.t_large,
                   "t_grid": [float(t) for t in t_grid],
                   "specs": [spec.to_literal() for spec in specs],
                   "window_pairs": [[src.to_literal(), probe.to_literal()] for src, probe in window_pairs]}
        payload = {"meta": _meta(_sha256(json.dumps(request, sort_keys=True)), args.seed),
                   "checks": records}
        _write((args.out, payload))
    print("verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 2


def _parse_values(raw: str) -> list:
    """Comma-separated numbers, fractions such as 1/3 and inclusive integer
    ranges such as 1..6; at most :data:`MAX_SWEEP_VALUES` of them, counted
    before a range is expanded."""
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if len(out) == MAX_SWEEP_VALUES:
            raise ConfigError(f"more than {MAX_SWEEP_VALUES} values in {raw!r}")
        try:
            if ".." in item:
                lo, _, hi = item.partition("..")
                lo, hi = int(lo), int(hi)
                if hi - lo + 1 > MAX_SWEEP_VALUES - len(out):
                    raise ConfigError(f"more than {MAX_SWEEP_VALUES} values in {raw!r}")
                out.extend(range(lo, hi + 1))
            elif "/" in item:
                num, _, den = item.partition("/")
                out.append(float(num) / float(den))
            else:
                out.append(float(item))
        except (ValueError, ArithmeticError):
            raise ConfigError(
                f"bad value {item!r} in {raw!r}; expected a number, a fraction such as 1/3 "
                "or an integer range such as 1..6"
            ) from None
    if not out:
        raise ConfigError(f"no values in {raw!r}")
    return out


def _cmd_sweep(args) -> int:
    if args.kind in STUDIES and (args.config or args.vary_source):
        raise ConfigError(f"--config and --vary-source are for custom sweeps; {args.kind} takes neither")
    if args.kind not in STUDIES and not (args.config and args.vary_source and args.values):
        raise ConfigError("custom sweeps need --config, --vary-source PARAM, and --values")
    cfg, config_hash = load_config(args.config) if args.config else (None, None)
    if cfg and cfg.targets is not None:
        raise ConfigError(f"{args.config}: a sweep reads each point's deepest leaf; name no 'targets'")
    # the config's run settings are the defaults under the flags, as in simulate
    run = _run_settings(args, cfg)
    out_base = args.out or (cfg and cfg.output) or f"sweep_{args.kind}"
    csv_path, json_path = _outputs(args.config, out_base + ".csv", out_base + ".json")
    # provenance hash covers the scientific request only; threads never
    # changes results and must not change output bytes
    request = {"kind": args.kind, "values": args.values, **run}
    if cfg is None:
        values = _parse_values(args.values) if args.values else None
        sweep = sweep_study(args.kind, values, threads=args.threads, **run)
    else:  # custom: vary one source-distribution parameter over a base config
        request["config_sha256"] = config_hash
        values = _parse_values(args.values)
        base = cfg.network.to_dict()

        def make_network(value, base=base, param=args.vary_source):
            topo = json.loads(json.dumps(base))
            topo["source_dist"][param] = value
            return CacheNetwork.from_dict(topo)

        sweep = sweep_network_family("custom", values, make_network, threads=args.threads, **run)

    for p in sweep.points:
        print(
            f"{sweep.kind} param={p.param:g}: analytic={p.analytic:.5g} "
            f"mc={p.outcome.mean:.5g} stderr={p.outcome.stderr:.3g} z={p.z:+.3f}"
        )
    if sweep.slope is not None:
        print(f"least-squares fit: slope={sweep.slope:.6g} intercept={sweep.intercept:.6g}")
    print(f"gate: {sweep.n_exceeding} point(s) beyond {Z_GATE} sigma ->",
          "PASS" if sweep.passed else "FAIL")

    payload = {
        "meta": _meta(_sha256(json.dumps(request, sort_keys=True, default=str)), run["seed"]),
        "sweep": sweep.to_dict(),
    }
    _write((csv_path, sweep.csv_text()), (json_path, payload))
    return 0 if sweep.passed else 2


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors: exit 1
        raise ConfigError(message)


def _threads(text: str) -> int:
    """A --threads value, refused below 1 by the pools' own rule."""
    try:
        _workers(threads := int(text), 1)
    except ValueError as exc:  # not an integer, or InvalidParameter
        raise argparse.ArgumentTypeError(str(exc)) from None
    return threads


def _add_run_flags(parser) -> None:
    """The flags simulate and sweep share; :func:`_run_settings` fills in
    those not given."""
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--estimator", choices=ESTIMATORS)
    parser.add_argument("--out", help="output base path (writes .json and .csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="versionage",
        description="Version age of information in renewal-updated cache networks: "
        "closed-form analytics, Monte Carlo simulation, statistical verifiers, "
        "and comparison sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"versionage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="closed-form expected age for a config")
    p_analytic.set_defaults(handler=_cmd_analytic)
    p_analytic.add_argument("config")
    p_analytic.add_argument("--out", help="write a JSON report here")

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation for a config")
    p_sim.set_defaults(handler=_cmd_simulate)
    p_sim.add_argument("config")
    _add_run_flags(p_sim)
    p_sim.add_argument("--targets", help="comma-separated node ids (default: leaves)")

    p_verify = sub.add_parser(
        "verify", help="statistical checks of the renewal limit theorems"
    )
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument(
        "spec", nargs="*",
        help="distributions to check, e.g. exponential:rate=1 (default: built-in battery)",
    )
    p_verify.add_argument("--window", nargs=2, action="append",
                          metavar=("SOURCE", "PROBE"),
                          help="windowed-count check for a source/probe pair")
    p_verify.add_argument("--t-grid", default="10,100",
                          help="martingale check times (comma-separated)")
    p_verify.add_argument("--t-large", type=float, default=None,
                          help="limit checks' horizon (default: 60 mean gaps of the slowest law, >= 100)")
    p_verify.add_argument("--paths", type=int, default=DEFAULT_PATHS)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", help="write a JSON report here")

    p_sweep = sub.add_parser("sweep", help="analytic-vs-simulation comparison sweeps")
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("kind", choices=(*STUDIES, "custom"))
    p_sweep.add_argument("--values", help="sweep values, comma-separated (fractions ok: 1/3)")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--config", help="base config for custom sweeps, whose run settings are the defaults")
    p_sweep.add_argument("--vary-source", metavar="PARAM",
                         help="source-distribution parameter varied in custom sweeps")

    for p in (p_sim, p_verify, p_sweep):
        p.add_argument("--threads", type=_threads, default=_usable_cpus(),
                       help="worker processes, at most one per usable CPU (default: every usable CPU); "
                       "affects speed only, never results")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VersionAgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
