/**
 * @file
 * Registry of every paper figure/table as a sweep definition.
 *
 * A Figure contributes (a) a task enumerator — one sweep::Task per
 * (scheme x workload x config point), each returning a flat RunRecord —
 * and (b) a presenter that re-derives the paper's text table from the
 * finished stats::Report. Tasks are independent and deterministic, so
 * the engine can run them on any number of threads; presenters only read
 * the report, so text output and JSON always agree.
 *
 * The registry backs the morc_sweep CLI (sweepMain over any subset).
 */

#ifndef MORC_BENCH_FIGURES_HH
#define MORC_BENCH_FIGURES_HH

#include <string>
#include <vector>

#include "stats/report.hh"
#include "sweep/sweep.hh"

namespace morc {
namespace sweep {
class Journal;
}

namespace bench {

struct Figure
{
    const char *name;       // CLI name, e.g. "fig6"
    const char *title;      // banner line
    const char *paperClaim; // "Paper reports:" line
    std::vector<sweep::Task> (*tasks)();
    void (*present)(const stats::Report &);
};

/** Every figure/table, in paper order. */
const std::vector<Figure> &figures();

/** Lookup by name; nullptr if unknown. */
const Figure *findFigure(const std::string &name);

/**
 * Run one figure's sweep on @p jobs threads and assemble its report.
 *
 * With a @p journal (--checkpoint-dir), tasks whose key is already
 * journaled return their stored record without simulating, and every
 * freshly finished task is appended to the journal before the sweep
 * moves on — so a killed run resumes where it left off and reproduces
 * the uninterrupted report byte for byte.
 */
stats::Report runFigure(const Figure &fig, unsigned jobs,
                        sweep::Journal *journal = nullptr);

/**
 * The morc_sweep CLI: `[--jobs N] [--out DIR] [--checkpoint-dir DIR]
 * [--telemetry-epoch CYCLES] [--trace-out FILE] [--list]
 * [--list-schemes] [figure...|all]`.
 *
 * @return 0 on success; 1 on bad usage, unknown figure, or a failed
 *         sweep task.
 */
int sweepMain(int argc, char **argv);

} // namespace bench
} // namespace morc

#endif // MORC_BENCH_FIGURES_HH
