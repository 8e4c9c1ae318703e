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

namespace morc {
namespace bench {

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
