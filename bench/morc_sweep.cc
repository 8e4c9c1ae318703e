/**
 * @file
 * morc_sweep: run any paper figure/table sweep in parallel.
 *
 *   morc_sweep --list
 *   morc_sweep --jobs 8 --out results fig6 fig8
 *   morc_sweep --jobs $(nproc) all
 *   morc_sweep --telemetry-epoch 100000 --trace-out trace.json mesh
 *
 * Budgets scale with MORC_BENCH_INSTR / MORC_BENCH_WARMUP. JSON reports
 * (schema morc.sweep.report/v5) are bit-identical for any --jobs value.
 * --telemetry-epoch N samples every run's probe catalog each N simulated
 * cycles into the per-run "series" report section; --trace-out FILE
 * additionally records cycle-stamped events (log flushes, LMT conflict
 * evictions, fudge-factor near-ties, writeback bursts, NoC stalls) and
 * writes one Chrome trace-event JSON loadable in Perfetto. Both are off
 * by default and cost nothing when off.
 */

#include "common/figures.hh"

int
main(int argc, char **argv)
{
    return morc::bench::sweepMain(argc, argv);
}
