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
produce byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from . import __version__
from .analytic import expected_version_age
from .distributions import Beta, ChiSquare, Deterministic, Distribution, Exponential
from .distributions import ParetoI, Rayleigh, Uniform, from_literal
from .errors import ConfigError, VersionAgeError
from .experiments import (
    Z_GATE,
    sweep_hop_count,
    sweep_link_variance,
    sweep_network_family,
    sweep_source_mean,
)
from .network import CacheNetwork
from .renewal import (
    verify_backward_recurrence_limit,
    verify_martingale_zero_mean,
    verify_windowed_count_limit,
)
from .simulator import DEFAULT_HORIZON, DEFAULT_ITERATIONS, DEFAULT_SEED, ESTIMATORS
from .simulator import check_horizon, monte_carlo

THREADS_ENV = "VERSIONAGE_THREADS"

DEFAULT_VERIFY_PATHS = 20_000

SIMULATE_CSV_HEADER = "target,estimator,mean,stderr,iterations,horizon,seed"

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
    horizon: float = DEFAULT_HORIZON
    iterations: int = DEFAULT_ITERATIONS
    master_seed: int = DEFAULT_SEED
    targets: list[str] | None = None
    estimator: str = "terminal"
    output: str | None = None


def _ctx_get(obj: dict, key: str, ctx: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"{ctx}: missing required field {key!r}")
        return default
    return obj[key]


def _whole_number(obj: dict, key: str, ctx: str, default: int) -> int:
    """An integer field; integral finite floats such as 2e4 are accepted."""
    value = _ctx_get(obj, key, ctx, default=default)
    if isinstance(value, float) and math.isfinite(value) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}: {key!r} must be a whole number, got {value!r}")
    return value


def parse_config(text: str, source_name: str = "<config>") -> RunConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source_name}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{source_name}: top level must be an object")
    known = {
        "nodes", "source", "source_dist", "links",
        "horizon", "iterations", "master_seed", "targets", "estimator", "output",
    }
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"{source_name}: unknown fields {sorted(unknown)}")

    nodes = _ctx_get(obj, "nodes", source_name, required=True)
    source = _ctx_get(obj, "source", source_name, required=True)
    source_dist_lit = _ctx_get(obj, "source_dist", source_name, required=True)
    links_lit = _ctx_get(obj, "links", source_name, default=[])
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ConfigError(f"{source_name}: 'nodes' must be a list of strings")
    if not isinstance(links_lit, list):
        raise ConfigError(f"{source_name}: 'links' must be a list")

    try:
        source_dist = from_literal(source_dist_lit)
    except VersionAgeError as exc:
        raise ConfigError(f"{source_name}: source_dist: {exc}") from None

    links = []
    for i, entry in enumerate(links_lit):
        ctx = f"{source_name}: links[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{ctx}: must be an object")
        src = _ctx_get(entry, "from", ctx, required=True)
        dst = _ctx_get(entry, "to", ctx, required=True)
        try:
            dist = from_literal(_ctx_get(entry, "dist", ctx, required=True))
        except VersionAgeError as exc:
            raise ConfigError(f"{ctx}: dist: {exc}") from None
        links.append((src, dst, dist, entry.get("priority")))

    try:
        network = CacheNetwork(nodes=nodes, source=source, source_dist=source_dist, links=links)
    except VersionAgeError as exc:
        raise ConfigError(f"{source_name}: {exc}") from None

    horizon = _ctx_get(obj, "horizon", source_name, default=DEFAULT_HORIZON)
    if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
        raise ConfigError(f"{source_name}: 'horizon' must be a number, got {horizon!r}")
    horizon = float(horizon)
    iterations = _whole_number(obj, "iterations", source_name, DEFAULT_ITERATIONS)
    master_seed = _whole_number(obj, "master_seed", source_name, DEFAULT_SEED)
    estimator = _ctx_get(obj, "estimator", source_name, default="terminal")
    if estimator not in ESTIMATORS:
        raise ConfigError(f"{source_name}: estimator must be one of {ESTIMATORS}")
    try:
        check_horizon(horizon)
    except VersionAgeError as exc:
        raise ConfigError(f"{source_name}: {exc}") from None
    if iterations < 1:
        raise ConfigError(f"{source_name}: iterations must be >= 1")
    targets = _ctx_get(obj, "targets", source_name)
    if targets is not None:
        if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
            raise ConfigError(f"{source_name}: 'targets' must be a list of node ids")
        missing = [t for t in targets if t not in network.nodes]
        if missing:
            raise ConfigError(f"{source_name}: targets reference undeclared nodes {missing}")
    return RunConfig(
        network=network,
        horizon=horizon,
        iterations=iterations,
        master_seed=master_seed,
        targets=targets,
        estimator=estimator,
        output=_ctx_get(obj, "output", source_name),
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
            return from_literal(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad distribution literal {arg!r}: {exc.msg}") from None
        except VersionAgeError as exc:
            raise ConfigError(str(exc)) from None
    head, _, tail = text.partition(":")
    literal: dict = {"type": head.strip()}
    if tail:
        for item in tail.split(","):
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


def _write_json(path: str, payload: dict) -> None:
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _ensure_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# -- subcommands -----------------------------------------------------------------


def _cmd_analytic(args) -> int:
    cfg, config_hash = load_config(args.config)
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
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    cfg, config_hash = load_config(args.config)
    horizon = args.horizon if args.horizon is not None else cfg.horizon
    iterations = args.iterations if args.iterations is not None else cfg.iterations
    seed = args.seed if args.seed is not None else cfg.master_seed
    estimator = args.estimator if args.estimator is not None else cfg.estimator
    targets = args.targets.split(",") if args.targets else cfg.targets
    out_base = args.out or cfg.output or "simulate_out"

    outcomes = monte_carlo(
        cfg.network,
        targets=targets,
        horizon=horizon,
        iterations=iterations,
        master_seed=seed,
        estimator=estimator,
        threads=args.threads,
    )
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
    _write_text(out_base + ".csv", buf.getvalue())
    payload = {
        "meta": _meta(config_hash, seed),
        "topology": cfg.network.to_dict(),
        "outcomes": {node: oc.to_dict() for node, oc in outcomes.items()},
    }
    _write_json(out_base + ".json", payload)
    print(f"wrote {out_base}.csv and {out_base}.json")
    return 0


def _verify_line(kind: str, label: str, z: float, detail: str) -> tuple[str, bool]:
    ok = abs(z) < Z_GATE
    status = "PASS" if ok else "FAIL"
    return f"{kind:18s} {label:42s} {detail} z={z:+.3f} {status}", ok


def _cmd_verify(args) -> int:
    paths = args.paths
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    t_grid = [float(t) for t in args.t_grid.split(",")]
    specs = [parse_spec_arg(s) for s in args.spec]
    window_pairs = [
        (parse_spec_arg(a), parse_spec_arg(b)) for a, b in (args.window or [])
    ]
    if not specs and not window_pairs:
        specs = list(VERIFY_SPECS)
        window_pairs = list(VERIFY_WINDOW_PAIRS)

    records = []
    all_ok = True
    for spec in specs:
        m = spec.moments()
        for point in verify_martingale_zero_mean(spec, t_grid, paths, master_seed=seed):
            line, ok = _verify_line(
                "martingale", str(spec), point.z,
                f"t={point.t:g} mean={point.mean:+.5f}",
            )
            print(line)
            all_ok &= ok
            records.append({"check": "martingale", "spec": spec.to_literal(),
                            "t": point.t, "mean": point.mean, "stderr": point.stderr,
                            "z": point.z, "pass": ok})
        t_large = args.t_large if args.t_large is not None else max(100.0, 60.0 * m.mean)
        check = verify_backward_recurrence_limit(spec, t_large, paths, master_seed=seed)
        line, ok = _verify_line(
            "recurrence-limit", str(spec), check.z,
            f"estimate={check.estimate:.5f} target={check.target:.5f}",
        )
        print(line)
        all_ok &= ok
        records.append({"check": "recurrence-limit", "spec": spec.to_literal(),
                        "estimate": check.estimate, "target": check.target,
                        "stderr": check.stderr, "z": check.z, "pass": ok})
    for src_spec, probe_spec in window_pairs:
        t_large = args.t_large if args.t_large is not None else max(
            100.0, 60.0 * max(src_spec.moments().mean, probe_spec.moments().mean)
        )
        check = verify_windowed_count_limit(src_spec, probe_spec, t_large, paths, master_seed=seed)
        line, ok = _verify_line(
            "windowed-count", f"{src_spec} | probe {probe_spec}", check.z,
            f"estimate={check.estimate:.5f} target={check.target:.5f}",
        )
        print(line)
        all_ok &= ok
        records.append({"check": "windowed-count", "source": src_spec.to_literal(),
                        "probe": probe_spec.to_literal(), "estimate": check.estimate,
                        "target": check.target, "stderr": check.stderr,
                        "z": check.z, "pass": ok})
    if args.out:
        request = {"paths": paths, "t_grid": t_grid, "seed": seed}
        payload = {"meta": _meta(_sha256(json.dumps(request, sort_keys=True)), seed),
                   "checks": records}
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    print("verify:", "all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 2


def _parse_values(raw: str, integer: bool = False) -> list:
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:  # integer ranges like 1..6, inclusive
            lo, _, hi = item.partition("..")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise ConfigError(f"bad range {item!r}; expected LO..HI integers") from None
            continue
        if "/" in item:  # exact fractions like 1/3
            num, _, den = item.partition("/")
            value = float(num) / float(den)
        else:
            value = float(item)
        out.append(int(value) if integer else value)
    if not out:
        raise ConfigError(f"no sweep values in {raw!r}")
    return out


def _cmd_sweep(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    estimator = args.estimator or "terminal"
    common = dict(
        iterations=args.iterations,
        horizon=args.horizon,
        seed=seed,
        estimator=estimator,
        threads=args.threads,
    )
    # provenance hash covers the scientific request only; threads never
    # changes results and must not change output bytes
    request = {"kind": args.kind, "values": args.values,
               **{k: v for k, v in common.items() if k != "threads"}}
    if args.kind == "fig5":
        values = _parse_values(args.values) if args.values else None
        sweep = sweep_source_mean(**({"m_values": values} if values else {}), **common)
    elif args.kind == "fig6":
        values = _parse_values(args.values, integer=True) if args.values else None
        sweep = sweep_hop_count(**({"n_values": values} if values else {}), **common)
    elif args.kind == "fig7":
        values = _parse_values(args.values) if args.values else None
        sweep = sweep_link_variance(**({"v_values": values} if values else {}), **common)
    else:  # custom: vary one source-distribution parameter over a base config
        if not args.config or not args.vary_source or not args.values:
            raise ConfigError(
                "custom sweeps need --config, --vary-source PARAM, and --values"
            )
        cfg, config_hash = load_config(args.config)
        request["config_sha256"] = config_hash
        values = _parse_values(args.values)
        base = cfg.network.to_dict()

        def make_network(value, base=base, param=args.vary_source):
            topo = json.loads(json.dumps(base))
            topo["source_dist"][param] = value
            return CacheNetwork.from_dict(topo)

        sweep = sweep_network_family("custom", values, make_network, **common)

    for p in sweep.points:
        print(
            f"{sweep.kind} param={p.param:g}: analytic={p.analytic:.5g} "
            f"mc={p.outcome.mean:.5g} stderr={p.outcome.stderr:.3g} z={p.z:+.3f}"
        )
    if sweep.slope is not None:
        print(f"least-squares fit: slope={sweep.slope:.6g} intercept={sweep.intercept:.6g}")
    print(f"gate: {sweep.n_exceeding} point(s) beyond {Z_GATE} sigma ->",
          "PASS" if sweep.passed else "FAIL")

    out_base = args.out or f"sweep_{args.kind}"
    _write_text(out_base + ".csv", sweep.csv_text())
    payload = {
        "meta": _meta(_sha256(json.dumps(request, sort_keys=True, default=str)), seed),
        "sweep": sweep.to_dict(),
    }
    _write_json(out_base + ".json", payload)
    print(f"wrote {out_base}.csv and {out_base}.json")
    return 0 if sweep.passed else 2


# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors: exit 1
        raise ConfigError(message)


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
    p_analytic.add_argument("config")
    p_analytic.add_argument("--out", help="write a JSON report here")

    p_sim = sub.add_parser("simulate", help="Monte Carlo simulation for a config")
    p_sim.add_argument("config")
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--iterations", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--estimator", choices=ESTIMATORS, default=None)
    p_sim.add_argument("--targets", help="comma-separated node ids (default: leaves)")
    p_sim.add_argument("--threads", type=int, default=_default_threads(),
                       help="worker processes; affects speed only, never results")
    p_sim.add_argument("--out", help="output base path (writes .json and .csv)")

    p_verify = sub.add_parser(
        "verify", help="statistical checks of the renewal limit theorems"
    )
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
                          help="evaluation horizon for the limit checks")
    p_verify.add_argument("--paths", type=int, default=DEFAULT_VERIFY_PATHS)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", help="write a JSON report here")

    p_sweep = sub.add_parser("sweep", help="analytic-vs-simulation comparison sweeps")
    p_sweep.add_argument("kind", choices=("fig5", "fig6", "fig7", "custom"))
    p_sweep.add_argument("--values", help="sweep values, comma-separated (fractions ok: 1/3)")
    p_sweep.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p_sweep.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--estimator", choices=ESTIMATORS, default=None)
    p_sweep.add_argument("--threads", type=int, default=_default_threads(),
                         help="worker processes; affects speed only, never results")
    p_sweep.add_argument("--config", help="base config for custom sweeps")
    p_sweep.add_argument("--vary-source", metavar="PARAM",
                         help="source-distribution parameter varied in custom sweeps")
    p_sweep.add_argument("--out", help="output base path (writes .json and .csv)")

    return parser


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
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
