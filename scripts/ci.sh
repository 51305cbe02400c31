#!/usr/bin/env bash
# The body of each CI job, runnable the same way on a workstation.
#
#   scripts/ci.sh tier1         the Tier-1 test suite, then the line counts of src/, tests/ and ci.sh
#   scripts/ci.sh runtime-deps  the installed package, run from outside the checkout
#   scripts/ci.sh bench-smoke   every benchmark workload briefly, untraced and traced
#
# Run it from the root of the checkout.  Installing is left to the caller:
# tier1 needs the package's test extra (pip install -e ".[test]"),
# runtime-deps the package without extras (pip install .), and bench-smoke
# numpy alone.  A job writes its summary to $GITHUB_STEP_SUMMARY when that
# is set, else to stdout.
set -euo pipefail

summary="${GITHUB_STEP_SUMMARY:-/dev/stdout}"

tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=15
    {
        echo '```'
        wc -l src/versionage/*.py
        wc -l tests/*.py scripts/ci.sh
        echo '```'
    } >> "$summary"
}

runtime_deps() {
    # the package as installed, imported and run from a directory without
    # the sources, so a runtime import of a test-only dependency such as
    # scipy fails here
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    cd "$work"
    python -c "import versionage"
    versionage verify exponential:rate=1 --paths 10000
    # a diamond s -> {a, b} -> c and a cache cycle c <-> d run the
    # general-graph engine of the vectorized simulator
    cat > general_config.json <<'EOF'
{"nodes": ["s", "a", "b", "c", "d"], "source": "s",
 "source_dist": {"type": "exponential", "rate": 2.0},
 "links": [{"from": "s", "to": "a", "dist": {"type": "exponential", "rate": 1.0}},
           {"from": "s", "to": "b", "dist": {"type": "uniform", "lo": 0, "hi": 2}},
           {"from": "a", "to": "c", "dist": {"type": "rayleigh", "sigma": 1.0}},
           {"from": "b", "to": "c", "dist": {"type": "exponential", "rate": 1.0}},
           {"from": "c", "to": "d", "dist": {"type": "exponential", "rate": 2.0}},
           {"from": "d", "to": "c", "dist": {"type": "deterministic", "c": 0.5}}],
 "horizon": 100, "iterations": 200, "targets": ["c", "d"],
 "estimator": "time_average"}
EOF
    versionage simulate general_config.json --threads 2 --out general_run
}

bench_smoke() {
    # run.py exits 0 even when a run is incorrect or a statistical gate
    # fails, so each run's verdict is read from the JSON on its last line:
    # "correct" must be true and "failed" 0
    out="$(mktemp)"
    trap 'rm -f "$out"' EXIT
    for workload in tree-sweeps general-simulate verify-battery; do
        for trace in 0 1; do
            python3 bench/run.py --workload "$workload" --seed 1 --seconds 2 --trace "$trace" > "$out"
            tail -n 1 "$out"
            tail -n 1 "$out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
        done
    done
}

case "${1:-}" in
    tier1) tier1 ;;
    runtime-deps) runtime_deps ;;
    bench-smoke) bench_smoke ;;
    *)
        echo "usage: $0 tier1|runtime-deps|bench-smoke" >&2
        exit 2
        ;;
esac
