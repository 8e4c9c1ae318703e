#!/usr/bin/env bash
# Regenerate every paper table/figure via the parallel sweep engine.
#
#   ./run_benches.sh                     # all figures, all cores
#   ./run_benches.sh --jobs 4 fig6 fig8  # a subset on 4 threads
#   ./run_benches.sh --out results       # also write JSON reports
#   ./run_benches.sh --smoke             # CI gate: perf gates + 4 figures
#
# Budgets scale with MORC_BENCH_INSTR / MORC_BENCH_WARMUP. Any bench
# failure (crash or failed sweep task) propagates as a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

# --smoke: a fast end-to-end exercise of the sweep engine for CI. On a
# tiny instruction budget it runs the three perf gates below, then
# sweeps fig6, mesh, kvserve and lifetime — enough to catch crashes,
# sweep-task failures and perf regressions without paying for
# paper-fidelity statistics. Byte-identity across job counts, schemas
# and checkpoint resume are ctest's Figures.* cases. Must come before
# the defaults below so the smoke budget wins unless the caller
# overrode it.
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
    # The perf gates: one bench_speed run, then the LBE hot path
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
