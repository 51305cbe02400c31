#!/usr/bin/env bash
# The body of each CI job, runnable the same way on a workstation.
#
#   scripts/ci.sh tier1         the Tier-1 test suite, link-order, long-chain, traced-target, deep-ring, thread, nested-sweep, shared-stream-sweep, verify-repeat and verify-threads checks, then the source size
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
    export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
    python -m pytest -q --continue-on-collection-errors --durations=15
    # an all-deterministic general graph in which c -> d ties with the
    # lateral link e -> c at 1.5, 3, ...: declared in two orders, it must
    # give the same results under each estimator, whose windows open on
    # the ties at 6 (time_average) and at the horizon 12 (terminal)
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    python - "$work" <<'EOF'
import json, sys
links = [("s", "a", 0.5), ("s", "b", 0.25), ("a", "c", 1.0), ("b", "e", 0.5),
         ("c", "d", 0.75), ("e", "c", 1.5), ("d", "c", 2.0)]
for name, order in (("declared", links), ("lateral-first", [links[5], *links[:5], links[6]])):
    config = {"nodes": ["s", "a", "b", "c", "d", "e"], "source": "s",
              "source_dist": {"type": "deterministic", "c": 0.25},
              "links": [{"from": f, "to": t, "dist": {"type": "deterministic", "c": c}} for f, t, c in order],
              "horizon": 12, "iterations": 4, "targets": ["c", "d"], "estimator": "time_average"}
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(config, fh)
EOF
    for name in declared lateral-first; do
        python -m versionage.cli simulate "$work/$name.json" --out "$work/$name-run"
        python -m versionage.cli simulate "$work/$name.json" --estimator terminal --out "$work/$name-terminal-run"
    done
    cmp "$work/declared-run.csv" "$work/lateral-first-run.csv"
    cmp "$work/declared-terminal-run.csv" "$work/lateral-first-terminal-run.csv"
    # a 10 000-hop chain whose links cycle through four laws, and the same
    # laws in reverse hop order: the closed form sums each path exactly in
    # one pass, so both finish in time and the leaf's age is the correctly
    # rounded path sum over the source mean
    python - "$work" <<'EOF'
import json, sys
laws = [{"type": "uniform", "lo": 0.0, "hi": 2.0}, {"type": "rayleigh", "sigma": 1.0},
        {"type": "chi_square", "k": 1}, {"type": "exponential", "rate": 3.0}]
hops = [laws[i % 4] for i in range(10_000)]
nodes = ["s"] + [f"n{i}" for i in range(1, 10_001)]
for name, order in (("hop-order", hops), ("reversed", hops[::-1])):
    config = {"nodes": nodes, "source": "s", "source_dist": {"type": "pareto1", "shape": 3.0, "scale": 1 / 3},
              "links": [{"from": nodes[i], "to": nodes[i + 1], "dist": d} for i, d in enumerate(order)]}
    with open(f"{sys.argv[1]}/chain-{name}.json", "w") as fh:
        json.dump(config, fh)
EOF
    for name in hop-order reversed; do
        timeout 10 python -m versionage.cli analytic "$work/chain-$name.json" --out "$work/chain-$name-age.json" > /dev/null
    done
    # summed left to right in floats, the contributions read
    # 8244.71140200742 in hop order and 8244.711402007419 in reverse
    python - "$work" <<'EOF'
import json, math, sys
reports = [json.load(open(f"{sys.argv[1]}/chain-{name}-age.json"))["analytic"] for name in ("hop-order", "reversed")]
ages = [r["per_node"]["n10000"] for r in reports]
exact = math.fsum(reports[0]["contributions"].values()) / reports[0]["source_mean"]
assert ages[0] == ages[1] == exact, (ages, exact)
EOF
    # the same run through the process pool, which receives the pickled
    # replicator; a one-CPU runner falls back to one worker
    python -m versionage.cli simulate "$work/declared.json" --threads 2 --out "$work/declared-threads-run"
    cmp "$work/declared-run.csv" "$work/declared-threads-run.csv"
    # the benchmark's general graph (diamond s -> {a, b} -> c, cache cycle
    # c <-> d, leaf tail d -> e) with random laws; both target lists must
    # give a and b the same samples.  Under time_average, a and b read no
    # cache with two feeds, so alone they are traced, and every cache as a
    # target runs the fixed point.  Under terminal, both lists run the one
    # backward search, so this checks that a start's answer does not depend
    # on which other starts share its search
    python - "$work" <<'EOF'
import json, sys
u = lambda lo, hi: {"type": "uniform", "lo": lo, "hi": hi}
links = [("s", "a", u(0.0, 2.0)), ("s", "b", {"type": "exponential", "rate": 1.0}),
         ("a", "c", {"type": "rayleigh", "sigma": 1.0}), ("b", "c", u(0.5, 1.5)),
         ("c", "d", {"type": "exponential", "rate": 2.0}), ("d", "c", u(0.0, 1.0)),
         ("d", "e", {"type": "rayleigh", "sigma": 0.8})]
config = {"nodes": ["s", "a", "b", "c", "d", "e"], "source": "s",
          "source_dist": {"type": "pareto1", "shape": 3.0, "scale": 0.5},
          "links": [{"from": f, "to": t, "dist": d} for f, t, d in links],
          "horizon": 100, "iterations": 40, "master_seed": 5}
with open(f"{sys.argv[1]}/general.json", "w") as fh:
    json.dump(config, fh)
EOF
    for estimator in terminal time_average; do
        for targets in a,b a,b,c,d,e; do
            python -m versionage.cli simulate "$work/general.json" --estimator "$estimator" --targets "$targets" \
                --out "$work/general-$estimator-$targets" > /dev/null
        done
    done
    python - "$work" <<'EOF'
import json, sys
for estimator in ("terminal", "time_average"):
    traced, iterated = (json.load(open(f"{sys.argv[1]}/general-{estimator}-{t}.json"))["outcomes"]
                        for t in ("a,b", "a,b,c,d,e"))
    for node in ("a", "b"):
        assert traced[node]["samples"] == iterated[node]["samples"], (estimator, node)
EOF
    python -m versionage.cli simulate "$work/general.json" --estimator time_average --targets a,b --threads 2 \
        --out "$work/general-threads" > /dev/null
    cmp "$work/general-time_average-a,b.csv" "$work/general-threads.csv"
    # a ring of 300 caches closed back onto c1: the window start's one
    # search settles every cache in time linear in the depth, in process
    # and in the pool
    python - "$work" <<'EOF'
import json, sys
nodes = ["s"] + [f"c{i}" for i in range(1, 301)]
links = [{"from": a, "to": b, "dist": {"type": "exponential", "rate": 1.0}} for a, b in zip(nodes, nodes[1:])]
links.append({"from": "c300", "to": "c1", "dist": {"type": "uniform", "lo": 0.0, "hi": 2.0}})
config = {"nodes": nodes, "source": "s", "source_dist": {"type": "exponential", "rate": 1.0}, "links": links,
          "horizon": 1e3, "iterations": 16, "targets": ["c1", "c150", "c300"]}
with open(f"{sys.argv[1]}/ring.json", "w") as fh:
    json.dump(config, fh)
EOF
    for threads in 1 2; do
        timeout 60 python -m versionage.cli simulate "$work/ring.json" --estimator time_average --threads "$threads" \
            --out "$work/ring-threads-$threads" > /dev/null
    done
    cmp "$work/ring-threads-1.csv" "$work/ring-threads-2.csv"
    # fig5's beta and chi-square samplers, in process and in the pool
    for threads in 1 2; do
        python -m versionage.cli sweep fig5 --values 1/3 --iterations 40 --threads "$threads" --out "$work/fig5-threads-$threads"
    done
    cmp "$work/fig5-threads-1.csv" "$work/fig5-threads-2.csv"
    # fig6's tree time average, in process and in the pool, whose workers
    # unpickle the replicator and its streams
    for threads in 1 2; do
        python -m versionage.cli sweep fig6 --values 1..3 --estimator time_average --iterations 40 \
            --threads "$threads" --out "$work/fig6-threads-$threads"
    done
    cmp "$work/fig6-threads-1.csv" "$work/fig6-threads-2.csv"
    # a fig6 sweep is one run of its longest chain, every hop a target: the
    # 4-hop point of 1..6 must be the 4-hop sweep's row, seed column and all
    for estimator in terminal time_average; do
        for values in 1..6 4; do
            python -m versionage.cli sweep fig6 --values "$values" --estimator "$estimator" --iterations 40 \
                --out "$work/fig6-nested-$estimator-$values" > /dev/null
        done
        cmp <(awk -F, '$2 == "4.0"' "$work/fig6-nested-$estimator-1..6.csv") \
            <(tail -n +2 "$work/fig6-nested-$estimator-4.csv")
    done
    # fig5 and fig7 points do not nest: a sweep reads one replicator per
    # point in one run, drawing the streams they share once per block.  The
    # last point of each pair must be the one-value sweep's row, seed column
    # and all
    for estimator in terminal time_average; do
        for kind_values in fig5:1/3,2/3 fig5:2/3 fig7:0.05,0.15 fig7:0.15; do
            kind="${kind_values%%:*}"
            values="${kind_values#*:}"
            python -m versionage.cli sweep "$kind" --values "$values" --estimator "$estimator" --iterations 40 \
                --out "$work/$kind-shared-$estimator-${values//\//_}" > /dev/null
        done
        cmp <(tail -n 1 "$work/fig5-shared-$estimator-1_3,2_3.csv") <(tail -n +2 "$work/fig5-shared-$estimator-2_3.csv")
        cmp <(tail -n 1 "$work/fig7-shared-$estimator-0.05,0.15.csv") <(tail -n +2 "$work/fig7-shared-$estimator-0.15.csv")
    done
    # 13 replications: the first worker takes block 0 (replications 0-7) and
    # the second the rest, so its range ends mid-block.  fig5 reads each
    # stream's block as one batch; a beta(0.01, 1.5) link at horizon 20 has
    # rows that end short of the horizon, so at seed 1 its block 1 is drawn
    # one row at a time, each row drawing on past its share of the batch
    python - "$work" <<'EOF'
import json, sys
config = {"nodes": ["s", "a"], "source": "s", "source_dist": {"type": "exponential", "rate": 2.0},
          "links": [{"from": "s", "to": "a", "dist": {"type": "beta", "alpha": 0.01, "beta": 1.5}}],
          "horizon": 20, "iterations": 13, "master_seed": 1}
with open(f"{sys.argv[1]}/short-rows.json", "w") as fh:
    json.dump(config, fh)
EOF
    for threads in 1 2; do
        python -m versionage.cli sweep fig5 --values 1/3,2/3 --iterations 13 --threads "$threads" \
            --out "$work/fig5-13-threads-$threads"
        python -m versionage.cli simulate "$work/general.json" --estimator time_average --iterations 13 \
            --threads "$threads" --out "$work/general-13-threads-$threads" > /dev/null
        python -m versionage.cli simulate "$work/short-rows.json" --threads "$threads" \
            --out "$work/short-rows-threads-$threads" > /dev/null
    done
    cmp "$work/fig5-13-threads-1.csv" "$work/fig5-13-threads-2.csv"
    cmp "$work/general-13-threads-1.json" "$work/general-13-threads-2.json"
    cmp "$work/short-rows-threads-1.json" "$work/short-rows-threads-2.json"
    # a beta(0.001, 1) link draws mostly zero gaps: at horizon 12 its first
    # slab takes the admitted 1.25 n + 32 events, and some streams extend
    # past it, in process and in the pool
    python - "$work" <<'EOF'
import json, sys
config = {"nodes": ["s", "a"], "source": "s", "source_dist": {"type": "exponential", "rate": 1.0},
          "links": [{"from": "s", "to": "a", "dist": {"type": "beta", "alpha": 0.001, "beta": 1.0}}],
          "horizon": 12, "iterations": 400, "estimator": "time_average"}
with open(f"{sys.argv[1]}/zero-gaps.json", "w") as fh:
    json.dump(config, fh)
EOF
    for threads in 1 2; do
        python -m versionage.cli simulate "$work/zero-gaps.json" --threads "$threads" --out "$work/zero-gaps-threads-$threads"
    done
    cmp "$work/zero-gaps-threads-1.csv" "$work/zero-gaps-threads-2.csv"
    # a recurrence and a window check, twice: the verifier's chunked
    # streams must write the same report each time
    for run in 1 2; do
        python -m versionage.cli verify exponential:rate=1 --window exponential:rate=2 exponential:rate=1 \
            --paths 10000 --out "$work/verify-$run.json"
    done
    cmp "$work/verify-1.json" "$work/verify-2.json"
    # a fast law's 12 532 events per path span several slabs of a chunk
    for run in 1 2; do
        python -m versionage.cli verify exponential:rate=100 --paths 10000 --out "$work/verify-deep-$run.json"
    done
    cmp "$work/verify-deep-1.json" "$work/verify-deep-2.json"
    # a grid time past T: every chunk's paths are extended past the first
    # slab, which is drawn only to T
    for run in 1 2; do
        python -m versionage.cli verify chi_square:k=1 --t-grid 10,400 --paths 10000 --out "$work/verify-extend-$run.json"
    done
    cmp "$work/verify-extend-1.json" "$work/verify-extend-2.json"
    # the default battery in process (--threads 1), on a two-worker pool
    # and at the default of every CPU: each check's chunk sums are added in
    # chunk order, so the three reports are byte-equal (a one-CPU runner
    # runs all three in process)
    python -m versionage.cli verify --paths 10000 --threads 1 --out "$work/verify-battery-1.json" > /dev/null
    python -m versionage.cli verify --paths 10000 --threads 2 --out "$work/verify-battery-2.json" > /dev/null
    python -m versionage.cli verify --paths 10000 --out "$work/verify-battery-default.json" > /dev/null
    cmp "$work/verify-battery-1.json" "$work/verify-battery-2.json"
    cmp "$work/verify-battery-1.json" "$work/verify-battery-default.json"
    {
        echo '```'
        wc -l src/versionage/*.py
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
