"""The three benchmark workloads, their reference values and their checks.

Every workload runs through ``versionage.cli.run``, the entry point users
call, with ``--threads 1``.  A round is one fixed set of CLI calls; the timed
loop repeats whole rounds with the same seed, so every round must write the
same bytes.

Reference values are computed here from textbook moment formulas, never from
``versionage.analytic`` or ``Distribution.moments()``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

HORIZON = 1000.0
Z_GATE = 4.0

# -- textbook references ------------------------------------------------------


def textbook_moments(lit: dict) -> tuple[float, float]:
    """(E[Y], E[Y^2]) of a distribution literal, from the standard formulas."""
    kind = lit["type"]
    if kind == "exponential":
        r = lit["rate"]
        return 1.0 / r, 2.0 / (r * r)
    if kind == "uniform":
        lo, hi = lit["lo"], lit["hi"]
        return (lo + hi) / 2.0, (hi**3 - lo**3) / (3.0 * (hi - lo))
    if kind == "rayleigh":
        s = lit["sigma"]
        return s * math.sqrt(math.pi / 2.0), 2.0 * s * s
    if kind == "chi_square":
        k = lit["k"]
        return float(k), float(k * k + 2 * k)
    if kind == "beta":
        a, b = lit["alpha"], lit["beta"]
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return mean, var + mean * mean
    if kind == "pareto1":
        a, m = lit["shape"], lit["scale"]
        return a * m / (a - 1.0), a * m * m / (a - 2.0)
    if kind == "deterministic":
        return lit["c"], lit["c"] ** 2
    raise ValueError(f"no textbook moments for {kind!r}")


def mean_backward_recurrence(lit: dict) -> float:
    """Long-run mean backward recurrence time E[Y^2] / (2 E[Y])."""
    m1, m2 = textbook_moments(lit)
    return m2 / (2.0 * m1)


def chain_age(source: dict, links: list[dict]) -> float:
    """Limiting expected age at the end of a chain: summed recurrence means
    of the links over the source's mean inter-update time."""
    return sum(mean_backward_recurrence(l) for l in links) / textbook_moments(source)[0]


def _lit(kind: str, **params) -> dict:
    return {"type": kind, **params}


def same_literal(a: dict, b: dict) -> bool:
    return a.get("type") == b.get("type") and set(a) == set(b) and all(
        math.isclose(float(a[k]), float(b[k]), rel_tol=1e-12) for k in a if k != "type"
    )


# -- helpers ------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``versionage.cli.run`` with stdout captured; looks ``run`` up at call
    time so a traced wrapper installed on the module is used."""
    from versionage import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def dir_digest(path: str) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every file in ``path``, and their size."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Checks:
    """Outcome of checking one round: failed operations and hard problems.

    A failed operation is a statistical check outside its 4-sigma gate; a
    problem is a deterministic disagreement (wrong reference, missing
    output, non-identical bytes) and makes the run incorrect.
    """

    def __init__(self):
        self.failed = 0
        self.problems: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def gate(self, ok: bool) -> None:
        if not ok:
            self.failed += 1


def _z(mean: float, ref: float, stderr: float) -> float:
    if stderr == 0.0:
        return 0.0 if mean == ref else math.inf
    return (mean - ref) / stderr


def _check_samples(checks: Checks, label: str, outcome: dict, iterations: int) -> None:
    samples = outcome["samples"]
    checks.require(outcome["iterations"] == iterations, f"{label}: iterations {outcome['iterations']}")
    checks.require(len(samples) == iterations, f"{label}: {len(samples)} samples")
    checks.require(outcome["horizon"] == HORIZON, f"{label}: horizon {outcome['horizon']}")
    checks.require(
        math.isclose(math.fsum(samples) / len(samples), outcome["mean"], rel_tol=1e-9, abs_tol=1e-12),
        f"{label}: mean does not match its samples",
    )


# -- tree-sweeps ---------------------------------------------------------------

FIG5_LINKS = [_lit("rayleigh", sigma=1.0), _lit("chi_square", k=1), _lit("beta", alpha=2.0, beta=3.0)]
FIG6_LINK = _lit("uniform", lo=0.0, hi=2.0)
FIG_SOURCE = _lit("pareto1", shape=3.0, scale=1.0 / 3.0)


def _fig7_link(v: float) -> dict:
    half = math.sqrt(3.0 * v)
    return _lit("uniform", lo=1.0 - half, hi=1.0 + half)


class TreeSweeps:
    """fig5 (terminal), fig6 over 1..6 hops and fig7 (time_average), horizon 1e3."""

    name = "tree-sweeps"
    iterations = 500
    # (CLI kind, extra arguments, [(param, hops, reference)])
    studies = [
        (
            "fig5",
            ["--estimator", "terminal"],
            [
                (m, 3, chain_age(_lit("pareto1", shape=3.0, scale=m), FIG5_LINKS))
                for m in (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
            ],
        ),
        (
            "fig6",
            ["--values", "1..6", "--estimator", "time_average"],
            [(float(n), n, chain_age(FIG_SOURCE, [FIG6_LINK] * n)) for n in range(1, 7)],
        ),
        (
            "fig7",
            ["--estimator", "time_average"],
            [(v, 4, chain_age(FIG_SOURCE, [_fig7_link(v)] * 4)) for v in (0.05, 0.15, 0.25, 1.0 / 3.0)],
        ),
    ]

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        points = [p for _, _, pts in self.studies for p in pts]
        self.ops_per_round = len(points)
        self.replications_per_round = len(points) * self.iterations
        # the tree engine draws one sample path per stream on the target's path
        self.paths_per_round = sum(hops + 1 for _, hops, _ in points) * self.iterations

    def build(self) -> list:
        """The configs of one round: every sweep point's network, plus parsed CLI
        arguments."""
        from versionage import cli
        from versionage.experiments import fig5_network, fig6_network, fig7_network

        make = {"fig5": fig5_network, "fig6": lambda n: fig6_network(int(n)), "fig7": fig7_network}
        parser = cli.build_parser()
        built = []
        for kind, extra, points in self.studies:
            parser.parse_args(self._argv(kind, extra, "setup"))
            built.extend(make[kind](param) for param, _, _ in points)
        return built

    def _argv(self, kind: str, extra: list[str], out_dir: str, iterations=None, threads=1) -> list[str]:
        return [
            "sweep", kind, *extra,
            "--iterations", str(iterations or self.iterations),
            "--horizon", repr(HORIZON),
            "--seed", str(self.seed),
            "--threads", str(threads),
            "--out", os.path.join(out_dir, kind),
        ]

    def round(self, out_dir: str) -> list[tuple[int, str]]:
        return [call_cli(self._argv(kind, extra, out_dir)) for kind, extra, _ in self.studies]

    def check(self, out_dir: str, results) -> Checks:
        checks = Checks()
        for (kind, _, points), (code, _) in zip(self.studies, results):
            checks.require(code in (0, 2), f"{kind}: exit code {code}")
            if code not in (0, 2):
                continue
            doc = _read_json(os.path.join(out_dir, kind + ".json"))["sweep"]
            rows = _read_csv(os.path.join(out_dir, kind + ".csv"))
            checks.require(len(doc["points"]) == len(points), f"{kind}: {len(doc['points'])} points")
            checks.require(len(rows) == len(points), f"{kind}: {len(rows)} CSV rows")
            for (param, _, ref), point, row in zip(points, doc["points"], rows):
                label = f"{kind}({param:g})"
                outcome = point["outcome"]
                checks.require(math.isclose(point["param"], param, rel_tol=1e-12), f"{label}: param")
                checks.require(
                    math.isclose(point["analytic"], ref, rel_tol=1e-12),
                    f"{label}: analytic {point['analytic']!r} != textbook {ref!r}",
                )
                checks.require(float(row["mc_mean"]) == outcome["mean"], f"{label}: CSV mean")
                _check_samples(checks, label, outcome, self.iterations)
                checks.gate(abs(_z(outcome["mean"], ref, outcome["stderr"])) < Z_GATE)
        return checks

    def cross_check(self, round_dir: str) -> list[str]:
        """Engine identity against the event loop, and --threads 1 vs 2."""
        from versionage import simulate_once
        from versionage.experiments import fig5_network, fig6_network

        problems = []
        fig5 = _read_json(os.path.join(round_dir, "fig5.json"))["sweep"]["points"][0]
        net = fig5_network(fig5["param"])
        for i, sample in enumerate(fig5["outcome"]["samples"][:3]):
            loop = simulate_once(net, HORIZON, fig5["seed"], iteration=i).terminal["n3"]
            if loop != sample:
                problems.append(f"fig5 replication {i}: event loop {loop} != tree engine {sample}")
        fig6 = _read_json(os.path.join(round_dir, "fig6.json"))["sweep"]["points"][-1]
        net = fig6_network(int(fig6["param"]))
        for i, sample in enumerate(fig6["outcome"]["samples"][:3]):
            loop = simulate_once(net, HORIZON, fig6["seed"], iteration=i).time_average["n6"]
            if not math.isclose(loop, sample, rel_tol=1e-9):
                problems.append(f"fig6(6) replication {i}: event loop {loop!r} != tree engine {sample!r}")

        digests = []
        for threads in (1, 2):
            out = os.path.join(self.work_dir, f"threads{threads}")
            os.makedirs(out, exist_ok=True)
            for kind, extra in (("fig5", ["--values", "1/3,1"]), ("fig6", ["--values", "1..3", "--estimator", "time_average"])):
                code, _ = call_cli(self._argv(kind, extra, out, iterations=40, threads=threads))
                if code not in (0, 2):
                    problems.append(f"reduced {kind} --threads {threads}: exit code {code}")
            digests.append(dir_digest(out)[0])
        if digests[0] != digests[1]:
            problems.append("reduced tree-sweeps: --threads 1 and --threads 2 outputs differ")
        return problems


# -- general-simulate -------------------------------------------------------------

GENERAL_SOURCE = _lit("pareto1", shape=3.0, scale=0.5)
GENERAL_LINKS = [
    ("src", "a", _lit("uniform", lo=0.0, hi=2.0)),
    ("src", "b", _lit("exponential", rate=1.0)),
    ("a", "c", _lit("rayleigh", sigma=1.0)),
    ("b", "c", _lit("uniform", lo=0.5, hi=1.5)),
    ("c", "d", _lit("exponential", rate=2.0)),
    ("d", "c", _lit("uniform", lo=0.0, hi=1.0)),
    ("d", "e", _lit("rayleigh", sigma=0.8)),
]
GENERAL_NODES = ["src", "a", "b", "c", "d", "e"]
GENERAL_TARGETS = GENERAL_NODES[1:]


def general_network():
    """The general-simulate graph as a CacheNetwork, built through the library."""
    from versionage import CacheNetwork, from_literal

    links = [(s, d, from_literal(lit)) for s, d, lit in GENERAL_LINKS]
    return CacheNetwork(GENERAL_NODES, "src", from_literal(GENERAL_SOURCE), links)


def general_config(seed: int, iterations: int) -> dict:
    """Diamond src->{a,b}->c, cycle c<->d, leaf tail d->e; every cache a target."""
    return {
        "nodes": GENERAL_NODES,
        "source": "src",
        "source_dist": GENERAL_SOURCE,
        "links": [{"from": s, "to": d, "dist": lit} for s, d, lit in GENERAL_LINKS],
        "horizon": HORIZON,
        "iterations": iterations,
        "master_seed": seed,
        "targets": GENERAL_TARGETS,
        "estimator": "time_average",
    }


def general_references() -> dict[str, tuple[str, float]]:
    """Exact ages of the single-feed caches a and b, and upper bounds for the
    rest: the closed form on each spanning path, minimized over paths.  Extra
    feeds only ever deliver versions, so they can only make a node fresher."""
    link = {(s, d): lit for s, d, lit in GENERAL_LINKS}

    def path_age(*nodes):
        return chain_age(GENERAL_SOURCE, [link[p] for p in zip(nodes, nodes[1:])])

    via = [("src", "a", "c"), ("src", "b", "c")]
    return {
        "a": ("exact", path_age("src", "a")),
        "b": ("exact", path_age("src", "b")),
        "c": ("bound", min(path_age(*p) for p in via)),
        "d": ("bound", min(path_age(*p, "d") for p in via)),
        "e": ("bound", min(path_age(*p, "d", "e") for p in via)),
    }


class GeneralSimulate:
    """``simulate`` with time_average on a GENERAL graph, through the event loop."""

    name = "general-simulate"
    iterations = 250
    references = general_references()

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "general.json")
        self.ops_per_round = len(GENERAL_TARGETS)
        self.replications_per_round = self.iterations
        # one sample path for the source and one per link
        self.paths_per_round = (1 + len(GENERAL_LINKS)) * self.iterations

    def build(self):
        from versionage import cli

        os.makedirs(self.work_dir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(general_config(self.seed, self.iterations), fh, indent=2)
        cfg, _ = cli.load_config(self.config_path)
        return cfg

    def _argv(self, out_dir: str, iterations=None, threads=1) -> list[str]:
        argv = ["simulate", self.config_path, "--threads", str(threads), "--out", os.path.join(out_dir, "general")]
        if iterations is not None:
            argv += ["--iterations", str(iterations)]
        return argv

    def round(self, out_dir: str):
        return [call_cli(self._argv(out_dir))]

    def check(self, out_dir: str, results) -> Checks:
        checks = Checks()
        code = results[0][0]
        checks.require(code == 0, f"simulate: exit code {code}")
        if code != 0:
            return checks
        outcomes = _read_json(os.path.join(out_dir, "general.json"))["outcomes"]
        rows = {r["target"]: r for r in _read_csv(os.path.join(out_dir, "general.csv"))}
        checks.require(sorted(outcomes) == sorted(GENERAL_TARGETS), f"simulate: outcomes for {sorted(outcomes)}")
        for node, (kind, ref) in self.references.items():
            if node not in outcomes:
                continue
            oc = outcomes[node]
            checks.require(oc["estimator"] == "time_average", f"{node}: estimator {oc['estimator']}")
            checks.require(node in rows and float(rows[node]["mean"]) == oc["mean"], f"{node}: CSV mean")
            _check_samples(checks, node, oc, self.iterations)
            z = _z(oc["mean"], ref, oc["stderr"])
            checks.gate(abs(z) < Z_GATE if kind == "exact" else z < Z_GATE)
        return checks

    def cross_check(self, round_dir: str) -> list[str]:
        """Replications re-run one at a time through simulate_once, and
        --threads 1 vs 2 on a reduced run."""
        from versionage import simulate_once

        problems = []
        cfg = self.build()
        outcomes = _read_json(os.path.join(round_dir, "general.json"))["outcomes"]
        for i in range(2):
            rep = simulate_once(cfg.network, HORIZON, self.seed, iteration=i)
            for node in GENERAL_TARGETS:
                if rep.time_average[node] != outcomes[node]["samples"][i]:
                    problems.append(f"general replication {i}, {node}: simulate_once disagrees with simulate")
        digests = []
        for threads in (1, 2):
            out = os.path.join(self.work_dir, f"threads{threads}")
            code, _ = call_cli(self._argv(out, iterations=4, threads=threads))
            if code != 0:
                problems.append(f"reduced simulate --threads {threads}: exit code {code}")
            digests.append(dir_digest(out)[0])
        if digests[0] != digests[1]:
            problems.append("reduced general-simulate: --threads 1 and --threads 2 outputs differ")
        return problems


# -- verify-battery ---------------------------------------------------------------

BATTERY = [
    _lit("exponential", rate=1.0),
    _lit("uniform", lo=0.0, hi=2.0),
    _lit("rayleigh", sigma=1.0),
    _lit("chi_square", k=1),
    _lit("beta", alpha=2.0, beta=3.0),
    _lit("pareto1", shape=3.0, scale=1.0 / 3.0),
    _lit("deterministic", c=1.0),
]
BATTERY_WINDOWS = [
    (_lit("exponential", rate=2.0), _lit("exponential", rate=1.0)),
    (_lit("exponential", rate=1.0), _lit("uniform", lo=0.0, hi=2.0)),
    (_lit("exponential", rate=1.0), _lit("deterministic", c=1.0)),
]
T_GRID = [10.0, 100.0]
#: (check, family) pairs whose estimate is not gated.  The age at t of
#: pareto1(3) has a tail like x^-2, so its variance is infinite: the CLI's
#: stderr understates the spread and the estimate fell outside 4 stderr on
#: 1 of 120 seeds (seed 12, z = -4.54), and outside 3 on 3 of them.  The
#: target is still checked against the textbook value.
UNGATED = {("recurrence-limit", "pareto1")}


class VerifyBattery:
    """The default ``verify`` battery with --paths raised."""

    name = "verify-battery"
    paths = 30_000

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.ops_per_round = len(BATTERY) * (len(T_GRID) + 1) + len(BATTERY_WINDOWS) - len(UNGATED)
        # one replication per verifier path; the window check simulates two
        # renewal processes per path
        calls = 2 * len(BATTERY) + len(BATTERY_WINDOWS)
        self.replications_per_round = calls * self.paths
        self.paths_per_round = (calls + len(BATTERY_WINDOWS)) * self.paths

    def build(self):
        from versionage import cli, from_literal

        cli.build_parser().parse_args(self._argv("setup"))
        return [from_literal(lit) for lit in BATTERY] + [
            (from_literal(s), from_literal(p)) for s, p in BATTERY_WINDOWS
        ]

    def _argv(self, out_dir: str) -> list[str]:
        return ["verify", "--paths", str(self.paths), "--seed", str(self.seed), "--out", os.path.join(out_dir, "verify.json")]

    def round(self, out_dir: str):
        return [call_cli(self._argv(out_dir))]

    def expected_records(self) -> list[tuple[str, dict, dict | None, float | None, float]]:
        """(check, spec or source, probe, t, textbook target) in battery order."""
        out = []
        for spec in BATTERY:
            out += [("martingale", spec, None, t, 0.0) for t in T_GRID]
            out.append(("recurrence-limit", spec, None, None, mean_backward_recurrence(spec)))
        for src, probe in BATTERY_WINDOWS:
            target = mean_backward_recurrence(probe) / textbook_moments(src)[0]
            out.append(("windowed-count", src, probe, None, target))
        return out

    def check(self, out_dir: str, results) -> Checks:
        checks = Checks()
        code = results[0][0]
        checks.require(code in (0, 2), f"verify: exit code {code}")
        if code not in (0, 2):
            return checks
        records = _read_json(os.path.join(out_dir, "verify.json"))["checks"]
        expected = self.expected_records()
        checks.require(len(records) == len(expected), f"verify: {len(records)} checks")
        for rec, (kind, spec, probe, t, target) in zip(records, expected):
            label = f"{kind} {spec}"
            checks.require(rec["check"] == kind, f"{label}: got {rec['check']}")
            if kind == "windowed-count":
                checks.require(
                    same_literal(rec["source"], spec) and same_literal(rec["probe"], probe),
                    f"{label}: battery entry {rec['source']} | {rec['probe']}",
                )
            else:
                checks.require(same_literal(rec["spec"], spec), f"{label}: battery entry {rec['spec']}")
            if kind == "martingale":
                checks.require(rec["t"] == t, f"{label}: t={rec['t']}")
                estimate = rec["mean"]
            else:
                checks.require(
                    math.isclose(rec["target"], target, rel_tol=1e-12),
                    f"{label}: target {rec['target']!r} != textbook {target!r}",
                )
                estimate = rec["estimate"]
            if (kind, spec["type"]) not in UNGATED:
                checks.gate(abs(_z(estimate, target, rec["stderr"])) < Z_GATE)
        return checks

    def cross_check(self, round_dir: str) -> list[str]:
        """The CLI is a front end: one check through it equals the library call."""
        from versionage import Exponential, verify_backward_recurrence_limit

        out = os.path.join(self.work_dir, "single.json")
        argv = ["verify", "exponential:rate=1", "--t-grid", "10", "--paths", "10000",
                "--seed", str(self.seed), "--out", out]
        code, _ = call_cli(argv)
        if code not in (0, 2):
            return [f"single verify: exit code {code}"]
        rec = _read_json(out)["checks"][-1]
        lib = verify_backward_recurrence_limit(Exponential(rate=1.0), 100.0, 10_000, master_seed=self.seed)
        if (rec["estimate"], rec["stderr"]) != (lib.estimate, lib.stderr):
            return ["verify: CLI recurrence check differs from the library call"]
        return []


WORKLOADS = {w.name: w for w in (TreeSweeps, GeneralSimulate, VerifyBattery)}
