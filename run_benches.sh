#!/usr/bin/env bash
# Regenerate every paper table/figure via the parallel sweep engine.
#
#   ./run_benches.sh                     # all figures, all cores
#   ./run_benches.sh --jobs 4 fig6 fig8  # a subset on 4 threads
#   ./run_benches.sh --out results       # also write JSON reports
#
# Budgets scale with MORC_BENCH_INSTR / MORC_BENCH_WARMUP (default
# 250k/500k, the budget of EXPERIMENTS.md). Any bench failure (crash or
# failed sweep task) propagates as a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

export MORC_BENCH_INSTR=${MORC_BENCH_INSTR:-250000}
export MORC_BENCH_WARMUP=${MORC_BENCH_WARMUP:-500000}

SWEEP=build/bench/morc_sweep
if [ ! -x "$SWEEP" ]; then
    echo "error: $SWEEP not built (cmake -B build && cmake --build build)" >&2
    exit 1
fi

JOBS=$(nproc 2>/dev/null || echo 1)
ARGS=()
while [ $# -gt 0 ]; do
    case "$1" in
      --jobs) JOBS="$2"; shift 2 ;;
      --jobs=*) JOBS="${1#--jobs=}"; shift ;;
      *) ARGS+=("$1"); shift ;;
    esac
done

exec "$SWEEP" --jobs "$JOBS" "${ARGS[@]+"${ARGS[@]}"}"
