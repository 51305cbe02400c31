"""Command-line behavior: config ingestion, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import versionage
from versionage.cli import parse_config, parse_spec_arg, run
from versionage.distributions import LITERAL_TYPES, Exponential, Uniform
from versionage.renewal import verify_renewal_limits, verify_windowed_count_limit
from versionage.errors import ConfigError

CHAIN_CONFIG = {
    "nodes": ["s", "a", "b"],
    "source": "s",
    "source_dist": {"type": "exponential", "rate": 2.0},
    "links": [
        {"from": "s", "to": "a", "dist": {"type": "uniform", "lo": 0, "hi": 2}},
        {"from": "a", "to": "b", "dist": {"type": "exponential", "rate": 1.0}},
    ],
    "horizon": 60.0,
    "iterations": 50,
    "master_seed": 5,
}

DIAMOND_CONFIG = {
    "nodes": ["s", "a", "b", "c"],
    "source": "s",
    "source_dist": {"type": "exponential", "rate": 1.0},
    "links": [
        {"from": "s", "to": "a", "dist": {"type": "exponential", "rate": 1.0}},
        {"from": "s", "to": "b", "dist": {"type": "exponential", "rate": 1.0}},
        {"from": "a", "to": "c", "dist": {"type": "exponential", "rate": 1.0}},
        {"from": "b", "to": "c", "dist": {"type": "exponential", "rate": 1.0}},
    ],
}


def write_config(tmp_path, payload, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- config parsing ------------------------------------------------------------

def test_parse_config_defaults():
    cfg = parse_config(json.dumps({k: v for k, v in CHAIN_CONFIG.items()
                                   if k in ("nodes", "source", "source_dist", "links")}))
    assert cfg.horizon == 1e3
    assert cfg.iterations == 20_000
    assert cfg.estimator == "terminal"
    assert cfg.targets is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.update(estimator="median"), "estimator"),
        (lambda c: c.update(horizon=-1), "horizon"),
        (lambda c: c.update(horizon=float("nan")), "positive finite"),
        (lambda c: c.update(iterations=0), "iterations"),
        (lambda c: c.update(targets=["nope"]), "undeclared"),
        (lambda c: c.update(extra_field=1), "unknown fields"),
        (lambda c: c.pop("source"), "missing required"),
        (lambda c: c["links"].append(
            {"from": "s", "to": "a", "dist": {"type": "uniform", "lo": 0, "hi": 2}}
        ), "declared twice"),
        (lambda c: c["links"][0].update(dist={"type": "what"}), "unknown distribution"),
        pytest.param(lambda c: c.update(iterations=float("nan")), "iterations must be a whole",
                     id="iterations-nan"),
        pytest.param(lambda c: c.update(iterations=2.7), "iterations must be a whole",
                     id="iterations-fraction"),
        pytest.param(lambda c: c.update(iterations=True), "iterations must be a whole",
                     id="iterations-bool"),
        pytest.param(lambda c: c.update(iterations="50"), "iterations must be a whole",
                     id="iterations-string"),
        pytest.param(lambda c: c.update(master_seed=float("inf")), "a master seed must be a whole",
                     id="seed-infinite"),
        pytest.param(lambda c: c.update(horizon="abc"), "horizon must be a positive finite number",
                     id="horizon-string"),
        pytest.param(lambda c: c.update(horizon=True), "horizon must be a positive finite number",
                     id="horizon-bool"),
        pytest.param(lambda c: c.update(output=5), "'output' must be a string",
                     id="output-number"),
        pytest.param(lambda c: c["links"][0].update(prio=3), r"links\[0\]: unknown fields \['prio'\]",
                     id="link-unknown-key"),
        pytest.param(lambda c: c["links"][0].update(priority=0), r"links\[0\]: unknown fields \['priority'\]",
                     id="link-priority-unknown"),
        pytest.param(lambda c: c["source_dist"].update(rate=True),
                     "source_dist: rate must be a positive finite number", id="rate-bool"),
        pytest.param(lambda c: c["links"][1].update(dist={"type": "chi_square", "k": True}),
                     r"links\[1\]: dist: k must be a whole number", id="chi-square-k-bool"),
        pytest.param(lambda c: c["links"][0].update(to=1), r"links\[0\]: 'to' must be a string",
                     id="link-to-number"),
        pytest.param(lambda c: c["links"][1].update({"from": None}), r"links\[1\]: 'from' must be a string",
                     id="link-from-null"),
        pytest.param(lambda c: c.update(source=["s"]), "'source' must be a string", id="source-list"),
        pytest.param(lambda c: c.update(nodes=["s", "a", "b\0"]), r"'nodes': node id 'b\\x00' contains a NUL",
                     id="node-nul"),
        pytest.param(lambda c: c.update(nodes=["s", "a", "b", "a"]), "node ids must be unique", id="node-twice"),
        pytest.param(lambda c: c.update(nodes="sab"), "'nodes' must be a list of strings", id="nodes-string"),
        pytest.param(lambda c: c.update(links={}), "'links' must be a list", id="links-object"),
        pytest.param(lambda c: c["links"].append(["a", "b"]), r"links\[2\]: must be an object", id="link-list"),
        pytest.param(lambda c: c["links"][1].update({"from": "x"}), "link 'x'->'b': 'x' is not a declared node",
                     id="link-from-undeclared"),
        pytest.param(lambda c: [c], "top level must be an object", id="top-level-list"),
        pytest.param(lambda c: c.update(targets="b"), "targets must be a list of node ids, not the string 'b'",
                     id="targets-string"),
        pytest.param(lambda c: c.update(targets={"b": 1}), "targets must be a list of node ids, got {'b': 1}",
                     id="targets-object"),
        pytest.param(lambda c: c.update(targets=5), "targets must be a list of node ids, got 5",
                     id="targets-number"),
        pytest.param(lambda c: c.update(targets=[["b"]]), r"targets must be node ids \(strings\), got \[\['b'\]\]",
                     id="targets-nested-list"),
        pytest.param(lambda c: c.update(targets=[None]), r"targets must be node ids \(strings\), got \[None\]",
                     id="targets-null-entry"),
    ],
)
def test_parse_config_diagnostics(mutate, fragment):
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    # a mutation edits the config in place, or returns a list to stand for it
    replaced = mutate(payload)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(json.dumps(replaced if isinstance(replaced, list) else payload))


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(json.dumps(dict(CHAIN_CONFIG, iterations=2e4, master_seed=7.0)))
    assert (cfg.iterations, cfg.master_seed) == (20_000, 7)
    assert type(cfg.iterations) is int and type(cfg.master_seed) is int


def test_parse_config_reports_json_position():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{nope}")


def test_parse_spec_arg_forms():
    assert parse_spec_arg("exponential:rate=1") == Exponential(rate=1.0)
    assert parse_spec_arg("uniform:lo=0,hi=2") == Uniform(lo=0.0, hi=2.0)
    assert parse_spec_arg('{"type": "exponential", "rate": 2}') == Exponential(rate=2.0)
    with pytest.raises(ConfigError):
        parse_spec_arg("exponential:rate")
    with pytest.raises(ConfigError):
        parse_spec_arg("exponential:rate=fast")
    with pytest.raises(ConfigError, match="bad distribution literal"):
        parse_spec_arg('{"type": "exponential",')


# -- analytic ---------------------------------------------------------------------

def test_analytic_prints_ages(tmp_path, capsys):
    path = write_config(tmp_path, CHAIN_CONFIG)
    out_json = str(tmp_path / "report.json")
    assert run(["analytic", path, "--out", out_json]) == 0
    printed = capsys.readouterr().out
    assert "b: 3.33333" in printed  # (2/3 + 1) / 0.5
    payload = json.loads(open(out_json).read())
    assert payload["meta"]["tool"] == "versionage"
    assert payload["analytic"]["per_node"]["b"] == pytest.approx(10.0 / 3.0, rel=1e-6)
    assert payload["topology"]["source"] == "s"


def test_analytic_rejects_general_graph(tmp_path, capsys):
    path = write_config(tmp_path, DIAMOND_CONFIG)
    assert run(["analytic", path]) == 1
    assert "closed form requires tree" in capsys.readouterr().err


def test_analytic_missing_file():
    assert run(["analytic", "/nonexistent/config.json"]) == 1


@pytest.mark.parametrize("lo", [True, "0", -1, float("nan")], ids=repr)
def test_analytic_rejects_bad_uniform_lo(tmp_path, capsys, lo):
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["links"][0]["dist"]["lo"] = lo
    assert run(["analytic", write_config(tmp_path, payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lo must be a nonnegative finite number" in err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: (c["nodes"].append("1"), c["links"].append(
            {"from": "b", "to": 1, "dist": {"type": "exponential", "rate": 1.0}})),
         "links[2]: 'to' must be a string"),
        (lambda c: (c.update(nodes=["0", "a", "b"], source=0), c["links"][0].update({"from": "0"})),
         "'source' must be a string"),
    ],
    ids=["link-to-number", "source-number"],
)
def test_non_string_endpoints_exit_one(tmp_path, capsys, mutate, message):
    # str() used to turn these into the declared node ids "1" and "0"
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    mutate(payload)
    base = str(tmp_path / "run")
    assert run(["simulate", write_config(tmp_path, payload), "--out", base]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not os.path.exists(base + ".json")


def test_analytic_rejects_rate_too_large_for_a_float(tmp_path, capsys):
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["links"][1]["dist"]["rate"] = 10**399  # 400 digits; json writes it as an integer
    assert run(["analytic", write_config(tmp_path, payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rate must be a positive finite number" in err
    assert "Traceback" not in err


# -- simulate ----------------------------------------------------------------------

def test_simulate_outputs_and_determinism(tmp_path, capsys):
    path = write_config(tmp_path, CHAIN_CONFIG)
    base1, base2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert run(["simulate", path, "--out", base1]) == 0
    assert run(["simulate", path, "--out", base2]) == 0
    csv1 = open(base1 + ".csv", "rb").read()
    assert csv1 == open(base2 + ".csv", "rb").read()
    assert csv1.decode().splitlines()[0] == "target,estimator,mean,stderr,iterations,horizon,seed"
    j1 = json.loads(open(base1 + ".json").read())
    assert j1 == json.loads(open(base2 + ".json").read())
    assert j1["meta"]["master_seed"] == 5
    assert set(j1["outcomes"]) == {"b"}  # default targets: leaves
    assert len(j1["outcomes"]["b"]["samples"]) == 50


def test_simulate_threads_do_not_change_output(tmp_path):
    path = write_config(tmp_path, CHAIN_CONFIG)
    base1, base2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert run(["simulate", path, "--out", base1, "--threads", "1"]) == 0
    assert run(["simulate", path, "--out", base2, "--threads", "3"]) == 0
    assert open(base1 + ".csv", "rb").read() == open(base2 + ".csv", "rb").read()
    assert open(base1 + ".json", "rb").read() == open(base2 + ".json", "rb").read()


def test_simulate_flag_overrides(tmp_path):
    path = write_config(tmp_path, CHAIN_CONFIG)
    base = str(tmp_path / "o")
    assert run(["simulate", path, "--out", base, "--iterations", "7",
                "--targets", "a,b", "--estimator", "time_average"]) == 0
    payload = json.loads(open(base + ".json").read())
    assert set(payload["outcomes"]) == {"a", "b"}
    assert payload["outcomes"]["a"]["estimator"] == "time_average"
    assert payload["outcomes"]["a"]["iterations"] == 7


def test_simulate_works_on_general_graphs(tmp_path):
    cfg = dict(DIAMOND_CONFIG, horizon=30.0, iterations=20)
    path = write_config(tmp_path, cfg)
    base = str(tmp_path / "g")
    assert run(["simulate", path, "--out", base]) == 0
    payload = json.loads(open(base + ".json").read())
    assert set(payload["outcomes"]) == {"c"}


def test_simulate_rejects_bad_horizons(tmp_path, capsys):
    path = write_config(tmp_path, CHAIN_CONFIG)
    base = str(tmp_path / "h")
    for value in ("nan", "inf", "-inf"):
        assert run(["simulate", path, f"--horizon={value}", "--out", base]) == 1
        assert "horizon must be a positive finite number" in capsys.readouterr().err
    nan_path = write_config(tmp_path, dict(CHAIN_CONFIG, horizon=float("nan")), "nan.json")
    assert run(["simulate", nan_path, "--out", base]) == 1
    assert "horizon" in capsys.readouterr().err
    assert run(["sweep", "fig6", "--values", "1", "--horizon", "nan", "--out", base]) == 1


def test_sweep_rejects_a_single_iteration(tmp_path, capsys):
    base = str(tmp_path / "one")
    assert run(["sweep", "fig6", "--values", "1,2", "--iterations", "1", "--horizon", "50",
                "--out", base]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a sweep needs iterations >= 2, got 1" in err
    assert not os.path.exists(base + ".json")


def test_simulate_rejects_overflowing_iterations(tmp_path, capsys):
    # 1e400 parses as an infinite float; it must not reach int()
    text = json.dumps(dict(CHAIN_CONFIG, iterations=1)).replace('"iterations": 1', '"iterations": 1e400')
    path = tmp_path / "huge.json"
    path.write_text(text)
    base = str(tmp_path / "out")
    assert run(["simulate", str(path), "--out", base]) == 1
    assert "iterations must be a whole number, got inf" in capsys.readouterr().err
    assert not os.path.exists(base + ".json")


def test_simulate_and_sweep_cap_iterations_before_drawing(tmp_path, capsys, monkeypatch):
    # a 400-digit count is a whole number; it must be refused, not run
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in LITERAL_TYPES.values():
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    huge = "9" * 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(CHAIN_CONFIG).replace('"iterations": 50', f'"iterations": {huge}'))
    base = str(tmp_path / "out")
    for argv in (["simulate", str(path)], ["sweep", "fig6", "--values", "1", "--iterations", huge]):
        assert run([*argv, "--out", base]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "iterations must be at most 1e+07" in err
        assert not os.path.exists(base + ".json")


def test_config_iterations_over_the_cap_are_rejected_when_read(tmp_path, capsys):
    # the run checks apply when the config is read, so even analytic, which
    # runs no replication, refuses an iteration count no run could use
    path = write_config(tmp_path, dict(CHAIN_CONFIG, iterations=10**7 + 1))
    with pytest.raises(ConfigError, match="iterations must be at most 1e\\+07"):
        parse_config(open(path).read())
    assert run(["analytic", path]) == 1
    assert "iterations must be at most 1e+07" in capsys.readouterr().err
    parse_config(json.dumps(dict(CHAIN_CONFIG, iterations=10**7)))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seeds_outside_64_bits_exit_one_before_drawing(tmp_path, capsys, monkeypatch, seed):
    # streams pack a seed mod 2**64, so these would run as -1 + 2**64, 0
    # and 1 do; every command that takes a seed refuses them, naming the range
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in LITERAL_TYPES.values():
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    config = write_config(tmp_path, CHAIN_CONFIG)
    base = str(tmp_path / "out")
    for argv in (
        ["simulate", config, "--seed", str(seed)],
        ["sweep", "fig6", "--values", "1", "--iterations", "4", "--seed", str(seed)],
        ["verify", "exponential:rate=1", "--paths", "10000", "--seed", str(seed)],
        ["analytic", write_config(tmp_path, dict(CHAIN_CONFIG, master_seed=seed))],
    ):
        assert run([*argv, "--out", base + ("" if argv[0] in ("simulate", "sweep") else ".json")]) == 1
        assert f"a master seed must be in 0 <= seed < 2**64, got {seed}" in capsys.readouterr().err
        assert not os.path.exists(base + ".json")
    with pytest.raises(ConfigError, match="master seed"):
        parse_config(json.dumps(dict(CHAIN_CONFIG, master_seed=seed)))


def test_the_largest_64_bit_seed_runs(tmp_path):
    base = str(tmp_path / "out")
    assert run(["sweep", "fig6", "--values", "1", "--iterations", "4", "--horizon", "50",
                "--seed", str(2**64 - 1), "--out", base]) == 0
    assert json.load(open(base + ".json"))["meta"]["master_seed"] == 2**64 - 1


def test_simulate_rejects_streams_over_the_event_budget(tmp_path, capsys, monkeypatch):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    monkeypatch.setattr(Exponential, "sample_batch", no_draws)
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["links"][1]["dist"]["rate"] = 1e12
    base = str(tmp_path / "budget")
    assert run(["simulate", write_config(tmp_path, payload), "--out", base, "--horizon", "1e3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "stream link a->b would draw about 1e+15 events" in err
    assert not os.path.exists(base + ".json")


def test_simulate_without_leaves_or_targets_exits_one(tmp_path, capsys):
    cfg = {
        "nodes": ["s", "x", "y"],
        "source": "s",
        "source_dist": {"type": "exponential", "rate": 1.0},
        "links": [
            {"from": "s", "to": "x", "dist": {"type": "exponential", "rate": 1.0}},
            {"from": "x", "to": "y", "dist": {"type": "exponential", "rate": 1.0}},
            {"from": "y", "to": "x", "dist": {"type": "exponential", "rate": 1.0}},
        ],
        "horizon": 10.0,
        "iterations": 3,
    }
    base = str(tmp_path / "cycle")
    assert run(["simulate", write_config(tmp_path, cfg), "--out", base]) == 1
    assert "no leaves" in capsys.readouterr().err
    assert not os.path.exists(base + ".json")


def test_simulate_refuses_a_target_named_twice(tmp_path, capsys):
    base = str(tmp_path / "twice")
    config = write_config(tmp_path, CHAIN_CONFIG)
    assert run(["simulate", config, "--targets", "a,b,a", "--out", base]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "targets name ['a'] more than once" in err
    assert not os.path.exists(base + ".csv")
    with pytest.raises(ConfigError, match=r"targets name \['b'\] more than once"):
        parse_config(json.dumps(dict(CHAIN_CONFIG, targets=["b", "b"])))


def test_simulate_rejects_empty_targets(tmp_path, capsys):
    base = str(tmp_path / "none")
    assert run(["simulate", write_config(tmp_path, dict(CHAIN_CONFIG, targets=[])), "--out", base]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the target list is empty" in err
    assert not os.path.exists(base + ".csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{config}", "--out", "{base}"],
        ["simulate", "{config}"],  # the config's own "output" names the base
        ["simulate", "{config}", "--out", "{dir}/sub/../cfg"],
        ["sweep", "custom", "--config", "{config}", "--vary-source", "rate", "--values", "1,2",
         "--iterations", "20", "--horizon", "20", "--out", "{base}"],
        ["analytic", "{config}", "--out", "{config}"],
    ],
    ids=["simulate", "simulate-config-output", "simulate-dotdot", "sweep-custom", "analytic"],
)
def test_results_never_overwrite_the_config(tmp_path, capsys, monkeypatch, argv):
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in LITERAL_TYPES.values():
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    base = str(tmp_path / "cfg")
    config = write_config(tmp_path, dict(CHAIN_CONFIG, output=base), "cfg.json")
    before = open(config, "rb").read()
    argv = [arg.format(config=config, base=base, dir=tmp_path) for arg in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "would overwrite the config" in err
    assert open(config, "rb").read() == before
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize(
    "out, message",
    [("{dir}/out/nodir/../x", "is not a directory and cannot be made one"),
     ("{config}/x", "is not a directory and cannot be made one"),
     ("{dir}/" + "n" * 300, "a name in it is longer than"),
     ("{dir}/" + "d" * 300 + "/x", "a name in it is longer than")],
    ids=["dotdot", "under-a-file", "long-file-name", "long-directory-name"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{config}"],
        ["sweep", "custom", "--config", "{config}", "--vary-source", "rate", "--values", "1,2",
         "--iterations", "20", "--horizon", "20"],
        ["analytic", "{config}"],
        ["verify", "exponential:rate=1", "--paths", "10000"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_unwritable_results_are_refused_before_drawing(tmp_path, capsys, monkeypatch, argv, out, message):
    # 'out/nodir/..' does not resolve while nodir is missing, nothing can be
    # made under a file, and no file system takes a 300-byte name: each
    # exits 1 before a single draw
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in LITERAL_TYPES.values():
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    config = write_config(tmp_path, CHAIN_CONFIG, "cfg.json")
    fill = {"config": config, "dir": tmp_path}
    argv = [arg.format(**fill) for arg in argv] + ["--out", out.format(**fill)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and message in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_a_result_path_naming_a_directory_is_refused(tmp_path, capsys):
    for out in (str(tmp_path), str(tmp_path / "sub") + os.sep):
        assert run(["verify", "exponential:rate=1", "--paths", "10000", "--out", out]) == 1
        assert "it names a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


#: runs analytic, simulate and verify with scipy unimportable; argv: src dir, config, out dir
NO_SCIPY_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
sys.modules["scipy"] = None
from versionage.cli import run
config, out = sys.argv[2], sys.argv[3]
codes = [
    run(["analytic", config, "--out", out + "/analytic.json"]),
    run(["simulate", config, "--iterations", "5", "--horizon", "20", "--out", out + "/sim"]),
    run(["verify", "exponential:rate=1", "--paths", "10000", "--out", out + "/verify.json"]),
]
sys.exit(codes != [0, 0, 0])
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: the commands must run with it unimportable
    src = os.path.dirname(os.path.dirname(versionage.__file__))
    config = write_config(tmp_path, CHAIN_CONFIG)
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, src, config, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("analytic.json", "sim.csv", "sim.json", "verify.json"):
        assert (tmp_path / name).stat().st_size > 0, name


def test_module_entry_point_runs():
    done = subprocess.run([sys.executable, "-m", "versionage.cli", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("versionage ")


# -- verify -------------------------------------------------------------------------

def test_verify_single_spec_passes(tmp_path, capsys):
    out = str(tmp_path / "verify.json")
    code = run(["verify", "exponential:rate=1", "--t-grid", "5,10",
                "--t-large", "80", "--paths", "10000", "--out", out])
    printed = capsys.readouterr().out
    assert code == 0
    assert "martingale" in printed and "recurrence-limit" in printed
    assert "all checks passed" in printed
    payload = json.loads(open(out).read())
    assert all(rec["pass"] for rec in payload["checks"])


def test_verify_records_equal_the_library_calls(tmp_path, capsys):
    out = str(tmp_path / "verify.json")
    argv = ["verify", "uniform:lo=0,hi=2", "--window", "exponential:rate=2", "exponential:rate=1",
            "--t-grid", "5,10", "--t-large", "80", "--paths", "10000", "--seed", "7", "--out", out]
    assert run(argv) == 0
    mart_5, mart_10, recurrence, window = json.loads(open(out).read())["checks"]
    points, check = verify_renewal_limits(Uniform(lo=0.0, hi=2.0), [5.0, 10.0], 80.0, 10_000, master_seed=7)
    for rec, point in zip((mart_5, mart_10), points):
        assert rec["check"] == "martingale"
        assert (rec["t"], rec["mean"], rec["stderr"], rec["z"]) == (point.t, point.mean, point.stderr, point.z)
    assert recurrence["check"] == "recurrence-limit"
    assert (recurrence["estimate"], recurrence["target"], recurrence["stderr"], recurrence["z"]) == (
        check.estimate, check.target, check.stderr, check.z)
    lib = verify_windowed_count_limit(Exponential(rate=2.0), Exponential(rate=1.0), 80.0, 10_000, master_seed=7)
    assert window["check"] == "windowed-count"
    assert (window["estimate"], window["stderr"], window["z"]) == (lib.estimate, lib.stderr, lib.z)


def test_verify_report_hash_covers_the_request(tmp_path, capsys):
    def config_hash(*argv):
        out = str(tmp_path / "verify.json")
        assert run(["verify", *argv, "--paths", "10000", "--out", out]) == 0
        return json.loads(open(out).read())["meta"]["config_sha256"]

    exp = config_hash("exponential:rate=1")
    # equal requests hash equally, however a law is written
    assert config_hash("exponential:rate=1") == exp
    assert config_hash('{"type": "exponential", "rate": 1.0}', "--t-grid", "10,100") == exp
    others = {
        config_hash("uniform:lo=0,hi=2", "--t-large", "200"),
        config_hash("exponential:rate=1", "--t-large", "200"),
        config_hash("exponential:rate=1", "--t-grid", "10"),
        config_hash("exponential:rate=1", "--seed", "2"),
        config_hash("--window", "exponential:rate=1", "uniform:lo=0,hi=2"),
        config_hash("exponential:rate=1", "--window", "exponential:rate=1", "uniform:lo=0,hi=2"),
    }
    assert len(others) == 6 and exp not in others


def test_equal_laws_write_identical_verify_reports(tmp_path, capsys):
    # a law's parameters are kept as floats, so 1 and 1.0 write the same bytes
    reports = []
    for i, spec in enumerate(["exponential:rate=1", '{"type": "exponential", "rate": 1}']):
        out = tmp_path / f"verify{i}.json"
        assert run(["verify", spec, "--t-large", "80", "--paths", "10000", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"rate": 1.0' in reports[0]


def test_config_integer_parameters_dump_as_floats(tmp_path, capsys):
    out = str(tmp_path / "analytic.json")
    assert run(["analytic", write_config(tmp_path, CHAIN_CONFIG), "--out", out]) == 0
    link = json.loads(open(out).read())["topology"]["links"][0]
    assert link == {"from": "s", "to": "a", "dist": {"type": "uniform", "lo": 0.0, "hi": 2.0}}
    assert all(type(v) is float for k, v in link["dist"].items() if k != "type")


@pytest.mark.parametrize("grid", ["", ","])
def test_verify_with_an_empty_grid_exits_one(capsys, grid):
    assert run(["verify", "exponential:rate=1", "--t-grid", grid, "--paths", "10000"]) == 1
    assert capsys.readouterr().err.startswith("error: no values in ")


def test_verify_window_pair(capsys):
    code = run(["verify", "--window", "exponential:rate=2", "exponential:rate=1",
                "--paths", "10000", "--t-large", "100"])
    assert code == 0
    assert "windowed-count" in capsys.readouterr().out


def test_verify_lattice_alignment_fails_gate(capsys):
    # a deterministic probe on an identical deterministic source never sees a
    # renewal inside the window: the estimate is exactly 0, the target is 1/2
    code = run(["verify", "--window", "deterministic:c=1", "deterministic:c=1",
                "--paths", "10000", "--t-large", "100"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_fast_law_at_default_times_passes(capsys):
    # 2 500 events per path at the default t_large of 100: within the event
    # budget, and a 2 048-path chunk's first slab of n + 4 sigma + 8 = 2 186
    # event rows fits in the slab budget of 4 882
    assert run(["verify", "exponential:rate=20", "--paths", "10000"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_verify_zero_stderr_z_has_the_sign_of_the_error(capsys):
    # the estimate is exactly 0, below the target 1/2, with zero stderr
    code = run(["verify", "--window", "deterministic:c=1", "deterministic:c=1", "--paths", "10000"])
    assert code == 2
    assert "estimate=0.00000 target=0.50000 z=-inf FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("usable", [2, None], ids=["2-cpus", "unknown-cpus"])
def test_verify_reports_keep_their_bytes_at_any_threads(tmp_path, capsys, monkeypatch, cpus, usable):
    # every check's chunks run on one pool for the whole run, or in process
    # where one worker is all there is, and their sums are added in chunk
    # order: the report is byte-equal at --threads 1, 2 and the default
    from concurrent.futures import ProcessPoolExecutor

    from versionage import renewal

    starts = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", CountedPool)
    if usable:
        cpus(usable)
    else:  # no affinity set and an unknown CPU count: one usable CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    argv = ["verify", "rayleigh:sigma=1", "--window", "exponential:rate=2", "exponential:rate=1",
            "--paths", "10000", "--seed", "11"]
    reports = []
    for threads in (["--threads", "1"], ["--threads", "2"], []):
        out = tmp_path / f"verify{len(reports)}.json"
        assert run([*argv, *threads, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert starts == ([2, 2] if usable else [])


def test_verify_threads_default_to_every_cpu(monkeypatch, cpus):
    from versionage.cli import build_parser

    # no affinity set and an unknown CPU count: one usable CPU
    with monkeypatch.context() as patch:
        patch.delattr(os, "sched_getaffinity", raising=False)
        patch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(["verify"]).threads == 1
    cpus(3)
    assert build_parser().parse_args(["verify"]).threads == 3


def test_simulate_and_sweep_threads_default_to_every_cpu(cpus):
    from versionage.cli import build_parser

    cpus(3)
    assert build_parser().parse_args(["simulate", "config.json"]).threads == 3
    assert build_parser().parse_args(["sweep", "fig5"]).threads == 3


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_threads_below_one_exit_1_before_any_work(tmp_path, capsys, monkeypatch, command, threads):
    from versionage import renewal

    def no_pool(*args, **kwargs):
        raise AssertionError("no worker may start")

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", no_pool)
    out = str(tmp_path / "out")
    argv = {"simulate": ["simulate", write_config(tmp_path, CHAIN_CONFIG)],
            "sweep": ["sweep", "fig5", "--values", "1/3", "--iterations", "16"],
            "verify": ["verify", "exponential:rate=1", "--paths", "10000"]}[command]
    assert run([*argv, "--threads", threads, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: argument --threads: threads must be at least 1, got {threads}\n"
    assert captured.out == "" and os.listdir(tmp_path) == ["net.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["exponential:rate=1", "pareto1:shape=1.5,scale=1"],
        ["exponential:rate=1", "--window", "exponential:rate=1", "pareto1:shape=1.5,scale=1"],
        ["exponential:rate=1", "--window", "exponential:rate=1", "exponential:rate=0.01", "--t-large", "100"],
    ],
    ids=["spec", "window", "t_large"],
)
def test_a_refused_check_after_a_good_one_starts_no_worker(tmp_path, capsys, monkeypatch, argv):
    # every check is validated before the pool starts, so a refused one
    # exits 1 having drawn, printed and written nothing
    from versionage import renewal

    def no_pool(*args, **kwargs):
        raise AssertionError("no worker may start")

    monkeypatch.setattr(renewal, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "verify.json"
    assert run(["verify", *argv, "--paths", "10000", "--threads", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no worker" not in captured.err
    assert captured.out == "" and not out.exists()


def test_verify_rejects_bad_spec(capsys):
    assert run(["verify", "exponential:rate=-2"]) == 1
    assert run(["verify", "pareto1:shape=1.5,scale=1"]) == 1


@pytest.mark.parametrize(
    "argv, fault",
    [
        (["analytic", "{config}"], "a moment too large for a float"),
        (["verify", "exponential:rate=1e-200"], "a moment too large for a float"),
        (["verify", "rayleigh:sigma=1e200"], "a moment too large for a float"),
        (["verify", "uniform:lo=1e200,hi=1e201"], "a moment too large for a float"),
        (["sweep", "custom", "--config", "{config}", "--vary-source", "rate", "--values", "1e-200",
          "--iterations", "20", "--horizon", "20"], "a moment too large for a float"),
        (["verify", "pareto1:shape=1.5,scale=1"], "a divergent moment"),
    ],
    ids=lambda arg: " ".join(arg[:2]) if isinstance(arg, list) else None,
)
def test_infinite_moments_exit_one(tmp_path, capsys, argv, fault):
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["source_dist"]["rate"] = 1e-200
    config = write_config(tmp_path, payload)
    argv = [config if arg == "{config}" else arg for arg in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"has {fault}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "law", [{"type": "uniform", "lo": 0, "hi": 5e-324}, {"type": "beta", "alpha": 1e-300, "beta": 1e300}],
    ids=lambda law: law["type"],
)
@pytest.mark.parametrize("command", ["verify", "verify window", "analytic", "simulate", "sweep custom"])
def test_a_mean_that_underflows_to_zero_exits_one(tmp_path, capsys, law, command):
    # the mean reads 0, so its link's age share and its stream's event count
    # would divide by it
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["links"][1]["dist"] = law
    config = write_config(tmp_path, payload)
    argv = {
        "verify": ["verify", json.dumps(law), "--paths", "10000"],
        "verify window": ["verify", "--window", "exponential:rate=1", json.dumps(law), "--paths", "10000"],
        "analytic": ["analytic", config],
        "simulate": ["simulate", config],
        "sweep custom": ["sweep", "custom", "--config", config, "--vary-source", "rate", "--values", "1,2",
                         "--iterations", "20", "--horizon", "20"],
    }[command]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    fault = "link a->b would draw about inf events" if command == "simulate" else "has a mean that underflows to 0"
    assert err.startswith("error: ") and fault in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify", "analytic", "sweep custom"])
def test_a_law_whose_draws_underflow_to_zero_exits_one(tmp_path, capsys, alarm, command):
    # beta(1e-310, 1) has mean 1e-310, but U^(1 / alpha) is 0 for every float
    # U < 1: no stream reaches its horizon, and the age 1 / 1e-310 is past
    # the float range
    tiny = {"type": "beta", "alpha": 1e-310, "beta": 1}
    payload = {"nodes": ["s", "a"], "source": "s", "source_dist": tiny, "horizon": 1e-308,
               "links": [{"from": "s", "to": "a", "dist": {"type": "exponential", "rate": 1.0}}]}
    config = write_config(tmp_path, payload)
    argv = {
        "simulate": ["simulate", config, "--iterations", "20"],
        "verify": ["verify", json.dumps(tiny), "--t-large", "1e-308", "--t-grid", "1e-309", "--paths", "10000"],
        "analytic": ["analytic", config],
        "sweep custom": ["sweep", "custom", "--config", config, "--vary-source", "alpha", "--values", "1e-310",
                         "--iterations", "20", "--horizon", "1e-308"],
    }[command]
    alarm(10)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    fault = ("drew only gaps of 0" if command in ("simulate", "verify")
             else "node a has an expected age too large for a float")
    assert err.startswith("error: ") and fault in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "out.json")


def test_verify_refuses_a_path_count_past_the_cap(tmp_path, capsys, alarm):
    # a 400-digit count would list about 10**397 chunks before any draw
    alarm(10)
    out = str(tmp_path / "out")
    assert run(["verify", "exponential:rate=1", "--paths", "9" * 400, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at most 1e+07 paths" in err and "Traceback" not in err
    assert not os.path.exists(out + ".json")


def test_a_link_that_mostly_draws_zeros_simulates(tmp_path):
    # beta(1e-4, 1) draws 0 for 93% of its gaps; its streams extend past
    # their first slab, often through 32-gap extensions that are all 0
    payload = {"nodes": ["s", "a"], "source": "s", "source_dist": {"type": "exponential", "rate": 1.0},
               "links": [{"from": "s", "to": "a", "dist": {"type": "beta", "alpha": 1e-4, "beta": 1}}],
               "horizon": 0.01}
    config = write_config(tmp_path, payload)
    assert run(["simulate", config, "--iterations", "40", "--out", str(tmp_path / "out")]) == 0


def test_verify_runs_a_beta_whose_moment_products_overflow(tmp_path, capsys):
    # a(a+1) and (a+b)(a+b+1) overflow at a = b = 1e200; E[Y^2] is about 1/4
    out = str(tmp_path / "beta.json")
    assert run(["verify", "beta:alpha=1e200,beta=1e200", "--paths", "10000", "--out", out]) in (0, 2)
    err = capsys.readouterr().err
    assert "too large for a float" not in err and "Traceback" not in err
    recurrence = json.load(open(out))["checks"][-1]
    assert recurrence["check"] == "recurrence-limit" and recurrence["target"] == 0.25


def test_simulate_runs_a_source_too_slow_for_a_float_moment(tmp_path):
    # the engine needs only the mean; no source event falls in the horizon
    payload = json.loads(json.dumps(CHAIN_CONFIG))
    payload["source_dist"]["rate"] = 1e-200
    base = str(tmp_path / "slow")
    assert run(["simulate", write_config(tmp_path, payload), "--out", base]) == 0
    assert {o["mean"] for o in json.load(open(base + ".json"))["outcomes"].values()} == {0.0}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "fig5", "--values", "abc"],
        ["sweep", "fig5", "--values", "1/0"],
        ["sweep", "fig6", "--values", "2.5,3.5"],
        ["sweep", "custom", "--config", "{config}", "--vary-source", "rate", "--values", "abc"],
        ["verify", "exponential:rate=1", "--t-grid", "abc"],
        ["verify", "exponential:rate=1", "--t-grid", "nan"],
        ["verify", "exponential:rate=1", "--t-grid", "inf"],
        ["verify", "exponential:rate=1", "--t-large", "nan"],
        ["verify", "exponential:rate=1", "--t-large", "inf"],
        ["verify", "--window", "exponential:rate=1", "exponential:rate=1", "--t-large", "nan"],
    ],
    ids=lambda argv: " ".join(argv[:2] + argv[-2:]),
)
def test_bad_values_exit_one(tmp_path, capsys, argv):
    config = write_config(tmp_path, CHAIN_CONFIG)
    argv = [config if arg == "{config}" else arg for arg in argv]
    small = ["--iterations", "20", "--horizon", "20"] if argv[0] == "sweep" else ["--paths", "10000"]
    out = str(tmp_path / "out")
    assert run(argv + small + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(name.startswith("out") for name in os.listdir(tmp_path))


def test_usage_errors_exit_one():
    assert run(["sweep", "fig9"]) == 1
    assert run([]) == 1


# -- sweep -------------------------------------------------------------------------

def test_sweep_cli_reproducible(tmp_path):
    base1, base2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    args = ["sweep", "fig6", "--values", "1,2", "--iterations", "200",
            "--horizon", "80", "--seed", "7"]
    assert run(args + ["--out", base1]) == 0
    assert run(args + ["--out", base2]) == 0
    assert open(base1 + ".csv", "rb").read() == open(base2 + ".csv", "rb").read()
    assert open(base1 + ".json", "rb").read() == open(base2 + ".json", "rb").read()


def test_sweep_cli_threads_identical(tmp_path):
    args = ["sweep", "fig7", "--values", "0.15,1/3", "--iterations", "150",
            "--horizon", "60", "--seed", "3"]
    base1, base2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    assert run(args + ["--out", base1, "--threads", "1"]) == 0
    assert run(args + ["--out", base2, "--threads", "2"]) == 0
    assert open(base1 + ".csv", "rb").read() == open(base2 + ".csv", "rb").read()
    assert open(base1 + ".json", "rb").read() == open(base2 + ".json", "rb").read()


def test_sweep_fig5_csv_columns(tmp_path):
    base = str(tmp_path / "f5")
    assert run(["sweep", "fig5", "--values", "1/3,2/3", "--iterations", "150",
                "--horizon", "60", "--seed", "2", "--out", base]) == 0
    lines = open(base + ".csv").read().splitlines()
    assert lines[0] == "sweep_kind,param,analytic,mc_mean,mc_stderr,z,iterations,horizon,seed"
    assert len(lines) == 3
    assert lines[1].startswith("source_mean,")


def test_sweep_custom_varies_source_parameter(tmp_path):
    path = write_config(tmp_path, CHAIN_CONFIG)
    base = str(tmp_path / "c")
    assert run(["sweep", "custom", "--config", path, "--vary-source", "rate",
                "--values", "1,2", "--iterations", "100", "--horizon", "50",
                "--out", base]) == 0
    payload = json.loads(open(base + ".json").read())
    params = [p["param"] for p in payload["sweep"]["points"]]
    assert params == [1.0, 2.0]
    # analytic halves when the source slows from rate 2 to rate 1... inverse check:
    a1, a2 = (p["analytic"] for p in payload["sweep"]["points"])
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


def test_sweep_custom_requires_flags(capsys):
    assert run(["sweep", "custom", "--values", "1,2"]) == 1
    assert "custom sweeps need" in capsys.readouterr().err


def test_sweep_custom_reads_its_config_run_settings(tmp_path, monkeypatch):
    # the config's horizon, iterations, seed, estimator and output are the
    # defaults under the flags, as in simulate
    from versionage.experiments import sweep_network_family
    from versionage.network import CacheNetwork

    monkeypatch.chdir(tmp_path)
    config = {**CHAIN_CONFIG, "horizon": 50, "iterations": 40, "master_seed": 3,
              "estimator": "time_average", "output": "runs/custom"}
    path = write_config(tmp_path, config)
    argv = ["sweep", "custom", "--config", path, "--vary-source", "rate", "--values", "1,2"]
    assert run(argv) == 0
    payload = json.loads((tmp_path / "runs" / "custom.json").read_text())
    sweep = payload["sweep"]
    assert (payload["meta"]["master_seed"], sweep["master_seed"], sweep["estimator"]) == (3, 3, "time_average")
    assert {(p["outcome"]["horizon"], p["outcome"]["iterations"]) for p in sweep["points"]} == {(50.0, 40)}

    def make(rate):
        topology = {k: CHAIN_CONFIG[k] for k in ("nodes", "source", "links")}
        return CacheNetwork.from_dict({**topology, "source_dist": {"type": "exponential", "rate": rate}})

    alone = sweep_network_family("custom", [1.0, 2.0], make, iterations=40, horizon=50.0, seed=3,
                                 estimator="time_average")
    assert [p["outcome"]["samples"] for p in sweep["points"]] == [p.outcome.samples.tolist() for p in alone.points]
    # a flag still wins over the config
    assert run(argv + ["--iterations", "30", "--estimator", "terminal", "--out", "flags"]) == 0
    sweep = json.loads((tmp_path / "flags.json").read_text())["sweep"]
    assert sweep["estimator"] == "terminal"
    assert {p["outcome"]["iterations"] for p in sweep["points"]} == {30}


def test_sweep_custom_refuses_a_config_naming_targets(tmp_path, capsys):
    # a sweep reads each point's deepest leaf, so named targets would be
    # ignored; the sweep is refused before anything is written
    path = write_config(tmp_path, {**CHAIN_CONFIG, "targets": ["a"]})
    argv = ["sweep", "custom", "--config", path, "--vary-source", "rate", "--values", "1,2",
            "--out", str(tmp_path / "out")]
    assert run(argv) == 1
    assert "deepest leaf; name no 'targets'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["net.json"]


@pytest.mark.parametrize("flags", [["--config", "{config}", "--vary-source", "rate"],
                                   ["--config", "{config}"], ["--vary-source", "rate"]])
def test_canned_sweeps_refuse_custom_flags_before_any_work(tmp_path, capsys, monkeypatch, flags):
    from versionage import cli

    monkeypatch.setattr(cli, "sweep_study", lambda *a, **k: pytest.fail("no sweep may run"))
    config = write_config(tmp_path, CHAIN_CONFIG)
    argv = ["sweep", "fig5", *(f.replace("{config}", config) for f in flags), "--out", str(tmp_path / "out")]
    assert run(argv) == 1
    assert "are for custom sweeps; fig5 takes neither" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["net.json"]


def test_values_range_syntax(tmp_path):
    from versionage.cli import _parse_values

    assert _parse_values("1..6") == [1, 2, 3, 4, 5, 6]
    assert _parse_values("0.05,1/3") == [0.05, pytest.approx(1.0 / 3.0)]
    with pytest.raises(ConfigError):
        _parse_values("1..x")
    base = str(tmp_path / "rng")
    assert run(["sweep", "fig6", "--values", "1..2", "--iterations", "80",
                "--horizon", "50", "--out", base]) == 0
    assert len(open(base + ".csv").read().splitlines()) == 3


@pytest.mark.parametrize(
    "values, message",
    [
        ("1..1000000000000", "more than 10000 values"),
        ("1..6000,7000..12000", "more than 10000 values"),
        pytest.param(",".join(map(str, range(1, 10_002))), "more than 10000 values", id="10001-plain-values"),
        ("100000", "hop count must lie in 0..10000"),
    ],
)
def test_sweep_size_is_bounded_before_anything_is_built(tmp_path, capsys, values, message):
    tracemalloc.start()
    try:
        assert run(["sweep", "fig6", "--values", values, "--out", str(tmp_path / "big")]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "{config}", "--targets", "a,b", "--iterations", "5000001"],
         "5000001 iterations x 2 targets must be at most 1e+07"),
        (["sweep", "fig6", "--values", "1..3", "--iterations", "4000000"],
         "4000000 iterations x 3 points must be at most 1e+07"),
        (["sweep", "fig5", "--values", "1/3,2/3,1", "--iterations", "4000000"],
         "4000000 iterations x 3 points must be at most 1e+07"),
    ],
)
def test_samples_kept_are_bounded_before_anything_is_drawn(tmp_path, capsys, monkeypatch, argv, message):
    # every replication's reading of every target (or sweep point) is kept,
    # so their product is capped, each count alone being under the cap
    def no_draws(self, rng, n):
        raise AssertionError("sample_batch must not run")

    for cls in LITERAL_TYPES.values():
        monkeypatch.setattr(cls, "sample_batch", no_draws)
    config = write_config(tmp_path, CHAIN_CONFIG)
    base = str(tmp_path / "out")
    tracemalloc.start()
    try:
        assert run([a.replace("{config}", config) for a in argv] + ["--out", base]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["net.json"]
