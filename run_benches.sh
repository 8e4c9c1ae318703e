#!/usr/bin/env bash
# Regenerate every paper table/figure via the parallel sweep engine.
#
#   ./run_benches.sh                     # all figures, all cores
#   ./run_benches.sh --jobs 4 fig6 fig8  # a subset on 4 threads
#   ./run_benches.sh --out results       # also write JSON reports
#   ./run_benches.sh --smoke             # CI gate: gates + 4 figures
#
# Budgets scale with MORC_BENCH_INSTR / MORC_BENCH_WARMUP. Any bench
# failure (crash or failed sweep task) propagates as a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

# --smoke: a fast end-to-end exercise of the sweep engine for CI. On a
# tiny instruction budget it runs the gates below (scheme registry,
# traced-mesh determinism, checkpoint resume, KV and lifetime
# determinism and schema, the three perf gates), then sweeps fig6,
# mesh, kvserve and lifetime — enough to catch crashes, sweep-task
# failures, nondeterminism, and schema regressions without paying for
# paper-fidelity statistics. Must come before the defaults below so the
# smoke budget wins unless the caller overrode it.
SMOKE_ARGS=()
SMOKE=0
for arg in "$@"; do
    if [ "$arg" = "--smoke" ]; then
        export MORC_BENCH_INSTR=${MORC_BENCH_INSTR:-20000}
        export MORC_BENCH_WARMUP=${MORC_BENCH_WARMUP:-40000}
        SMOKE_ARGS=(fig6 mesh kvserve lifetime)
        SMOKE=1
    fi
done

export MORC_BENCH_INSTR=${MORC_BENCH_INSTR:-250000}
export MORC_BENCH_WARMUP=${MORC_BENCH_WARMUP:-500000}

SWEEP=build/bench/morc_sweep
if [ ! -x "$SWEEP" ]; then
    echo "error: $SWEEP not built (cmake -B build && cmake --build build)" >&2
    exit 1
fi
BENCH_SPEED=build/bench/bench_speed
if [ "$SMOKE" = 1 ] && [ ! -x "$BENCH_SPEED" ]; then
    echo "error: $BENCH_SPEED not built (cmake -B build && cmake --build build)" >&2
    exit 1
fi

JOBS=$(nproc 2>/dev/null || echo 1)
ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) JOBS="$2"; shift 2 ;;
      --jobs=*) JOBS="${1#--jobs=}"; shift ;;
      --smoke) shift ;; # handled above
      *) ARGS+=("$1"); shift ;;
    esac
done
if [ ${#ARGS[@]} -eq 0 ] && [ ${#SMOKE_ARGS[@]} -gt 0 ]; then
    ARGS=("${SMOKE_ARGS[@]}")
fi

if [ "$SMOKE" = 1 ]; then
    # The scheme list is owned by one registry (sim/scheme.{hh,cc});
    # every enumerating surface (morc_check, the lifetime figure, the
    # design-space arena, this script) reads it through the binaries.
    # A scheme missing from --list-schemes means a driver grew its own
    # private list again.
    for s in uncompressed morc touche; do
        "$SWEEP" --list-schemes | grep -q "^$s " || {
            echo "error: scheme '$s' missing from the shared registry" >&2
            exit 1
        }
    done
    echo "smoke registry OK: $("$SWEEP" --list-schemes | wc -l) schemes"

    # ...and the telemetry path end to end: a traced mesh sweep must
    # write byte-identical reports and Chrome traces at jobs=1 and
    # jobs=8 (timestamps are simulated cycles), the trace must carry
    # log_flush instant events, and the report its series sections.
    TRDIR=$(mktemp -d /tmp/morc_smoke_trace.XXXXXX)
    for j in 1 8; do
        "$SWEEP" --jobs $j --telemetry-epoch 100000 --out "$TRDIR/j$j" \
            --trace-out "$TRDIR/j$j/trace.json" mesh > /dev/null
    done
    cmp "$TRDIR/j1/mesh.json" "$TRDIR/j8/mesh.json"
    cmp "$TRDIR/j1/trace.json" "$TRDIR/j8/trace.json"
    python3 - "$TRDIR/j1" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1] + "/trace.json"))["traceEvents"]
kinds = {e["name"] for e in events if e.get("ph") == "i"}
assert "log_flush" in kinds, kinds
r = json.load(open(sys.argv[1] + "/mesh.json"))
assert r["schema"] == "morc.sweep.report/v5", r["schema"]
assert any("series" in run for run in r["runs"]), "no series section"
print(f"smoke trace OK: {len(events)} events, kinds {sorted(kinds)}, "
      "jobs-independent bytes")
EOF
    rm -rf "$TRDIR"

    # ...and the checkpoint path: the same figure swept twice against
    # one --checkpoint-dir must serve the second run from the journal
    # ("resuming" on stderr) and emit byte-identical JSON.
    CKPT=$(mktemp -d /tmp/morc_smoke_ckpt.XXXXXX)
    "$SWEEP" --jobs "$JOBS" --checkpoint-dir "$CKPT" \
        --out "$CKPT/first" fig6 > /dev/null
    "$SWEEP" --jobs "$JOBS" --checkpoint-dir "$CKPT" \
        --out "$CKPT/second" fig6 > /dev/null 2> "$CKPT/resume.log"
    grep -q 'resuming' "$CKPT/resume.log"
    cmp "$CKPT/first/fig6.json" "$CKPT/second/fig6.json"
    echo "smoke checkpoint OK: resumed report is byte-identical"
    rm -rf "$CKPT"

    # ...and the KV-serving subsystem: the same kvserve sweep on one
    # thread and on all threads must emit byte-identical schema-v5
    # reports (per-tenant seeding + task-order assembly), and the
    # report must carry the v4 percentiles section.
    KVDIR=$(mktemp -d /tmp/morc_smoke_kv.XXXXXX)
    "$SWEEP" --jobs 1 --out "$KVDIR/j1" kvserve > /dev/null
    "$SWEEP" --jobs "$JOBS" --out "$KVDIR/jN" kvserve > /dev/null
    cmp "$KVDIR/j1/kvserve.json" "$KVDIR/jN/kvserve.json"
    python3 - "$KVDIR/j1/kvserve.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "morc.sweep.report/v5", r["schema"]
runs = r["runs"]
assert any("percentiles" in run for run in runs), "no percentiles"
p = next(run["percentiles"] for run in runs if "percentiles" in run)
assert "p99.9" in p["latency.all"], p
print(f"smoke kv OK: {len(runs)} runs, jobs-independent bytes")
EOF
    rm -rf "$KVDIR"

    # ...and the wear/lifetime subsystem: the lifetime figure ranks
    # every registry scheme, must be byte-identical at jobs=1 vs jobs=8
    # (wear charging happens inside the per-task simulation, so thread
    # count must not leak into the report), and must carry the v5
    # lifetime section for every run.
    LTDIR=$(mktemp -d /tmp/morc_smoke_lt.XXXXXX)
    "$SWEEP" --jobs 1 --out "$LTDIR/j1" lifetime > /dev/null
    "$SWEEP" --jobs 8 --out "$LTDIR/j8" lifetime > /dev/null
    cmp "$LTDIR/j1/lifetime.json" "$LTDIR/j8/lifetime.json"
    python3 - "$LTDIR/j1/lifetime.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "morc.sweep.report/v5", r["schema"]
runs = r["runs"]
assert all("lifetime" in run for run in runs), "run missing lifetime"
keys = {"cell_bits_written", "cell_bit_flips", "write_bits_per_sec",
        "flips_per_cell_per_sec", "imbalance", "set_variance", "years"}
assert keys <= set(runs[0]["lifetime"]), runs[0]["lifetime"]
schemes = {run["labels"]["scheme"] for run in runs}
assert "Touche" in schemes and "MORC" in schemes, schemes
print(f"smoke lifetime OK: {len(schemes)} schemes ranked, "
      "jobs-independent bytes")
EOF
    rm -rf "$LTDIR"

    # ...and the perf gates: one bench_speed run, then the LBE hot path
    # (the simulator's hottest loop), the KV service and the Touché
    # cache, each against its checked-in baseline. perf_gate.py
    # normalizes by the untouched FPC codec to cancel host speed. The
    # KV and Touché thresholds are looser: those are end-to-end
    # macrobenchmarks (µs per op through generator, cache, and tier
    # maps), so host jitter is proportionally larger.
    PERF_JSON=$(mktemp /tmp/morc_bench_speed.XXXXXX.json)
    "$BENCH_SPEED" --benchmark_filter='BM_Lbe|BM_Kv|BM_Touche|BM_FpcLine' \
        --benchmark_out="$PERF_JSON" --benchmark_out_format=json > /dev/null
    python3 tools/perf_gate.py "$PERF_JSON" \
        bench/baselines/BENCH_compress.json
    python3 tools/perf_gate.py "$PERF_JSON" \
        bench/baselines/BENCH_kv.json --gate BM_Kv --threshold 0.30
    python3 tools/perf_gate.py "$PERF_JSON" \
        bench/baselines/BENCH_touche.json --gate BM_Touche --threshold 0.30
    rm -f "$PERF_JSON"
fi

exec "$SWEEP" --jobs "$JOBS" "${ARGS[@]+"${ARGS[@]}"}"
