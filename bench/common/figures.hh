/**
 * @file
 * The morc_sweep CLI over every paper figure and table.
 *
 * figures.cc declares each figure once: its name, title and paper
 * claim; its axes, in task order; a map from a grid point to what the
 * point runs (a SystemConfig, its programs and budgets, or a
 * non-simulated record); and a presenter that reads the finished
 * stats::Report by grid position to print the paper's text table. The
 * tasks are the grid in axis order, keyed by the figure name and each
 * axis's value name. They are independent and deterministic, so the
 * sweep engine can run them on any number of threads; presenters only
 * read the report, so text output and JSON always agree.
 */

#ifndef MORC_BENCH_FIGURES_HH
#define MORC_BENCH_FIGURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/workload.hh"

namespace morc {
namespace bench {

/**
 * Canonical description of everything that determines a warmed-up
 * system: the effective config, the programs, and the warm-up budget.
 * Hashed (stableSeed) into the warm-snapshot filename, so identical
 * warm-up phases — across figures or across invocations — simulate once
 * and restore thereafter.
 *
 * The restore re-validates all of it except the warm-up budget: the
 * snapshot's SCFG section checks 35 config values (every one hashed
 * here outside the MORC geometry) and the programs, the MORC override's
 * geometry is checked by the LLC's own walk, and the histograms' bounds
 * by theirs. Only this hash separates snapshots that differ in the
 * warm-up budget; a collision between two such runs would restore the
 * wrong warm state. Any other mismatch is rejected and the caller falls
 * back to a cold warm-up. This list and SCFG's are still kept by hand.
 */
std::string warmFingerprint(const sim::SystemConfig &cfg,
                            const std::vector<trace::BenchmarkSpec> &programs,
                            std::uint64_t warmup);

/**
 * The morc_sweep CLI: `[--jobs N] [--out DIR] [--checkpoint-dir DIR]
 * [--telemetry-epoch CYCLES] [--trace-out FILE] [--list]
 * [--list-schemes] [figure...|all]`. Budgets come from
 * MORC_BENCH_INSTR (at least 1) and MORC_BENCH_WARMUP.
 *
 * @return 0 on success; 1 on bad usage, a malformed budget variable,
 *         an unknown figure, or a failed sweep task.
 */
int sweepMain(int argc, char **argv);

} // namespace bench
} // namespace morc

#endif // MORC_BENCH_FIGURES_HH
