/**
 * @file
 * morc_sweep: run any paper figure/table sweep in parallel (--help
 * lists every option).
 *
 *   morc_sweep --list
 *   morc_sweep --jobs 8 --out results fig6 fig8
 *   morc_sweep --jobs $(nproc) all
 *   morc_sweep --telemetry-epoch 100000 --trace-out trace.json mesh
 *
 * Budgets scale with MORC_BENCH_INSTR (at least 1) and
 * MORC_BENCH_WARMUP. JSON reports (schema morc.sweep.report/v5) are
 * bit-identical for any --jobs value. --telemetry-epoch N samples every
 * run's probe catalog each N simulated cycles into the per-run "series"
 * report section; --trace-out FILE additionally records cycle-stamped
 * events (log flushes, LMT conflict evictions, fudge-factor near-ties,
 * writeback bursts, NoC stalls) and writes one Chrome trace-event JSON
 * loadable in Perfetto. Both are off by default and cost nothing when
 * off. Exits 1 on bad usage, a malformed budget variable, an unknown
 * figure, or a failed sweep task.
 *
 * Each figure is declared once below: its name, title and paper
 * claim; its axes, in task order; a map from a grid point to what the
 * point runs (a SystemConfig, its programs and budgets, or a
 * non-simulated record); and a presenter that reads the finished
 * stats::Report by grid position to print the paper's text table. The
 * tasks are the grid in axis order, keyed by the figure name and each
 * axis's value name. They are independent and deterministic, so the
 * sweep engine can run them on any number of threads; presenters only
 * read the report, so text output and JSON always agree.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>

#include "cache/overheads.hh"
#include "compress/bdi.hh"
#include "compress/cpack.hh"
#include "compress/fpc.hh"
#include "compress/lbe.hh"
#include "compress/lzss.hh"
#include "compress/tagcodec.hh"
#include "core/morc.hh"
#include "energy/energy.hh"
#include "kv/service.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "stats/report.hh"
#include "stats/summary.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"
#include "telemetry/tracer.hh"
#include "trace/workload.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/sync.hh"

namespace morc {
namespace bench {

namespace {

using stats::Report;
using stats::RunRecord;
using sweep::Task;

// ------------------------------------------------------------------
// Run-wide settings
// ------------------------------------------------------------------

/** Per-core measured and warm-up instructions (MORC_BENCH_INSTR and
 *  MORC_BENCH_WARMUP; by default a short-but-stable budget warmed for
 *  twice as long), the telemetry options (--telemetry-epoch,
 *  --trace-out) and the warm-snapshot directory (--checkpoint-dir DIR =>
 *  DIR/warm; empty = warm checkpointing off). Set once by sweepMain
 *  before any task runs, then only read by (parallel) tasks, so plain
 *  globals are race-free. */
std::uint64_t g_instr = 800'000;
std::uint64_t g_warmup = 1'600'000;
std::uint64_t g_telemetryEpoch = 0;
bool g_traceEvents = false;
std::string g_warmDir;

/** One mutex per warm-snapshot path, so concurrent tasks that share a
 *  warm-up phase simulate it exactly once; everyone else restores. The
 *  map only grows and node references are stable, so the returned
 *  reference outlives the master lock. */
sync::Mutex &
warmMutex(const std::string &path)
{
    static sync::Mutex master;
    static std::map<std::string, sync::Mutex> locks;
    sync::LockGuard lock(master);
    return locks[path];
}

/** Hash (stableSeed) of the bytes a still-cold @p sys saves: its SCFG
 *  section, its programs and every component's geometry checks, which
 *  are exactly what a restore into it checks. */
std::uint64_t
coldKey(const sim::System &sys)
{
    snap::Serializer s;
    sys.saveState(s);
    const std::vector<std::uint8_t> &bytes = s.payload();
    return sweep::stableSeed(
        {reinterpret_cast<const char *>(bytes.data()), bytes.size()});
}

/**
 * Warm-up via the snapshot cache: restore
 * DIR/warm/<coldKey>-w<warmup>.morcsnp when present, else simulate the
 * warm-up once and save it. Runs whose cold systems save the same
 * bytes share a file; the warm-up budget, which no restore can check,
 * is in the name verbatim. Any rejected or unwritable snapshot
 * degrades to a cold warm-up — never an abort.
 */
void
warmViaCheckpoint(std::unique_ptr<sim::System> &sys,
                  const sim::SystemConfig &cfg,
                  const std::vector<trace::BenchmarkSpec> &programs,
                  std::uint64_t warmup)
{
    char name[64];
    std::snprintf(name, sizeof name, "%016llx-w%llu.morcsnp",
                  static_cast<unsigned long long>(coldKey(*sys)),
                  static_cast<unsigned long long>(warmup));
    const std::string path = g_warmDir + "/" + name;

    sync::LockGuard lock(warmMutex(path));
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        std::string err;
        if (sys->restore(path, &err))
            return;
        std::fprintf(stderr,
                     "[checkpoint] warm snapshot %s rejected (%s); "
                     "cold warm-up\n",
                     path.c_str(), err.c_str());
        // The failed restore may have partially written the system and
        // the caller-owned histograms: rebuild both from scratch.
        if (cfg.decompressedBytesHistogram)
            cfg.decompressedBytesHistogram->clear();
        if (cfg.hitLatencyHistogram)
            cfg.hitLatencyHistogram->clear();
        sys = std::make_unique<sim::System>(cfg, programs);
    }
    sys->warmup(warmup);
    std::string err;
    if (!sys->save(path, &err)) {
        std::fprintf(stderr,
                     "[checkpoint] cannot save warm snapshot %s (%s)\n",
                     path.c_str(), err.c_str());
    }
}

// ------------------------------------------------------------------
// Figure declarations
// ------------------------------------------------------------------

/** One axis of a figure's grid: each value's name, in task order. The
 *  name is the value's part of every task key. */
using Axis = std::vector<std::string>;

/** A grid position: one value index per axis, in declaration order. */
using Point = std::vector<std::size_t>;

/** What one simulated grid point runs. */
struct Run
{
    sim::SystemConfig cfg;
    std::vector<trace::BenchmarkSpec> programs; // one per core
    std::uint64_t instr = 0;                    // measured, per core
    std::uint64_t warmup = 0;                   // warm-up, per core
    std::vector<std::pair<std::string, std::string>> labels;
    /** Builds the record from the finished System; null = simRecord. */
    std::function<RunRecord(sim::System &, const sim::RunResult &)> read;
};

/** A finished figure's records, read by grid position. */
struct Grid
{
    const std::vector<Axis> &axes;
    const Report &rep;

    std::size_t size(std::size_t a) const { return axes[a].size(); }

    /** Name of value @p i on axis @p a. */
    const char *
    name(std::size_t a, std::size_t i) const
    {
        return axes[a][i].c_str();
    }

    /** The record at @p p: one index per axis, in declaration order. */
    const RunRecord &
    at(std::initializer_list<std::size_t> p) const
    {
        std::size_t flat = 0, a = 0;
        for (std::size_t i : p)
            flat = flat * axes.at(a++).size() + i;
        return rep.runs.at(flat);
    }
};

/**
 * One paper figure or table: its grid of tasks and how to present them.
 * Tasks enumerate the axes in declaration order, the last varying
 * fastest; a task's key is the figure name followed by its value names.
 * Each point either simulates (@c simulate) or computes its record
 * directly from the task seed (@c record).
 */
struct Figure
{
    const char *name;       // CLI name and first key part, e.g. "fig6"
    const char *title;      // banner line
    const char *paperClaim; // "Paper reports:" line
    std::vector<Axis> axes;
    void (*present)(const Grid &);
    Run (*simulate)(const Point &) = nullptr;
    RunRecord (*record)(const Point &, std::uint64_t seed) = nullptr;
    /** Axes in key order, when it differs from the task order. */
    std::vector<std::size_t> keyOrder = {};
};

/** Flatten a finished run into the standard metrics. */
RunRecord
simRecord(const sim::RunResult &r)
{
    RunRecord rec;
    rec.metric("ratio", r.compressionRatio);
    rec.metric("gb_per_binstr", r.gbPerBillionInstr());
    rec.metric("ipc", r.cores[0].ipc());
    rec.metric("throughput", r.cores[0].throughput());
    rec.metric("mean_ipc", r.meanIpc());
    rec.metric("gmean_ipc", r.gmeanIpc());
    rec.metric("mean_throughput", r.meanThroughput());
    rec.metric("completion_cycles",
               static_cast<double>(r.completionCycles));
    rec.metric("mem_reads", static_cast<double>(r.memReads));
    rec.metric("mem_writes", static_cast<double>(r.memWrites));
    rec.metric("instructions",
               static_cast<double>(r.totalInstructions));
    rec.metric("invalid_frac", r.invalidLineFraction);
    const auto &e = r.energyBreakdown;
    rec.metric("energy_total", e.total());
    rec.metric("energy_static", e.staticJ);
    rec.metric("energy_dram", e.dramJ);
    rec.metric("energy_sram", e.sramJ);
    rec.metric("energy_comp", e.compJ);
    rec.metric("energy_decomp", e.decompJ);
    rec.metric("log_flushes", static_cast<double>(r.llcStats.logFlushes));
    rec.metric("lmt_conflict_evicts",
               static_cast<double>(r.llcStats.lmtConflictEvicts));
    rec.metric("llc_hit_rate",
               r.llcStats.reads == 0
                   ? 0.0
                   : static_cast<double>(r.llcStats.readHits) /
                         static_cast<double>(r.llcStats.reads));
    rec.lifetimePoint("cell_bits_written",
                      static_cast<double>(r.llcStats.cellBitsWritten));
    rec.lifetimePoint("cell_bit_flips",
                      static_cast<double>(r.llcStats.cellBitFlips));
    rec.lifetimePoint("write_bits_per_sec", r.lifetime.writeBitsPerSec);
    rec.lifetimePoint("flips_per_cell_per_sec",
                      r.lifetime.flipsPerCellPerSec);
    rec.lifetimePoint("imbalance", r.lifetime.imbalance);
    rec.lifetimePoint("set_variance", r.lifetime.setVariance);
    rec.lifetimePoint("years", r.lifetime.years);
    if (r.meshed) {
        rec.metric("noc_messages", static_cast<double>(r.nocMessages));
        rec.metric("noc_mean_hops", r.nocMeanHops);
        // mean_throughput is already per-core (per-tile) normalized;
        // sys_ipc_per_tile is the raw aggregate-rate analogue.
        rec.metric("sys_ipc_per_tile",
                   static_cast<double>(r.totalInstructions) /
                       std::max(1.0, static_cast<double>(r.completionCycles)) /
                       static_cast<double>(r.cores.size()));
        rec.histograms.emplace_back("noc_hops", r.nocHopHist);
        rec.histograms.emplace_back("noc_queue_cycles", r.nocQueueHist);
    }
    return rec;
}

/**
 * The point runner, which with warmViaCheckpoint's fallback is the only
 * code that builds a System: apply the telemetry options, warm up
 * through the warm-snapshot cache when --checkpoint-dir is set,
 * measure, and build the record.
 */
RunRecord
runPoint(const Run &run)
{
    sim::SystemConfig cfg = run.cfg;
    cfg.telemetryEpoch = g_telemetryEpoch;
    cfg.traceEvents = g_traceEvents;
    auto sys = std::make_unique<sim::System>(cfg, run.programs);
    const bool cached = !g_warmDir.empty() && run.warmup > 0;
    if (cached)
        warmViaCheckpoint(sys, cfg, run.programs, run.warmup);
    sim::RunResult r = cached ? sys->measure(run.instr)
                              : sys->run(run.instr, run.warmup);
    RunRecord rec = run.read ? run.read(*sys, r) : simRecord(r);
    rec.labels = run.labels;
    rec.series = std::move(r.series);
    rec.trace = std::move(r.trace);
    return rec;
}

/** A single-program point on the Figure 6 system: one core, 128 KB of
 *  LLC and 100 MB/s, the SystemConfig defaults. */
Run
single(const trace::BenchmarkSpec &spec, sim::Scheme scheme)
{
    Run run;
    run.cfg.scheme = scheme;
    run.cfg.ratioSampleInterval =
        std::max<std::uint64_t>(g_instr / 8, 50'000);
    run.programs = {spec};
    run.instr = g_instr;
    run.warmup = g_warmup;
    run.labels = {{"workload", spec.name},
                  {"scheme", sim::schemeName(scheme)}};
    return run;
}

/** A MORC point sampling its ratio once per run, labelled by workload
 *  only: the figures that study MORC's internals (7, 12 and 14). */
Run
morcInternals(const trace::BenchmarkSpec &spec)
{
    Run run = single(spec, sim::Scheme::Morc);
    run.cfg.ratioSampleInterval = g_instr;
    run.labels = {{"workload", spec.name}};
    return run;
}

/** A point running workload @p programs[c] on core c, sharing the LLC.
 *  Every program spends its own budget, so both budgets are divided by
 *  @p divisor and floored at @p floor. */
Run
multi(const std::vector<std::string> &programs, sim::Scheme scheme,
      std::uint64_t divisor, std::uint64_t floor)
{
    Run run;
    run.instr = std::max(g_instr / divisor, floor);
    run.warmup = std::max(g_warmup / divisor, floor);
    run.cfg.scheme = scheme;
    run.cfg.numCores = static_cast<unsigned>(programs.size());
    run.cfg.ratioSampleInterval =
        std::max<std::uint64_t>(run.instr, 100'000);
    for (const auto &name : programs)
        run.programs.push_back(trace::resolveWorkload(name));
    return run;
}

/** An axis naming each of @p values by @p name. */
template <typename R, typename F>
Axis
axis(const R &values, F name)
{
    Axis a;
    for (const auto &v : values)
        a.push_back(name(v));
    return a;
}

const sim::Scheme kCompared[] = {
    sim::Scheme::Uncompressed, sim::Scheme::Adaptive,
    sim::Scheme::Decoupled, sim::Scheme::Sc2, sim::Scheme::Morc};

const sim::Scheme kUncompressedVsMorc[] = {sim::Scheme::Uncompressed,
                                           sim::Scheme::Morc};

void
banner(const Figure &fig)
{
    std::printf("==================================================="
                "=====================\n");
    std::printf("%s\n", fig.title);
    std::printf("Paper reports: %s\n", fig.paperClaim);
    std::printf("==================================================="
                "=====================\n");
}

/** Append AMean and GMean rows for a per-benchmark series. */
void
printMeans(const char *label, const std::vector<double> &v)
{
    std::printf("%-12s AMean %6.2f  GMean %6.2f\n", label,
                stats::amean(v), stats::gmean(v));
}

// ------------------------------------------------------------------
// Figure 2: oracle intra- vs inter-line compression limits
// ------------------------------------------------------------------

const sim::Scheme kOracles[] = {sim::Scheme::Uncompressed,
                                sim::Scheme::OracleIntra,
                                sim::Scheme::OracleInter};

void
fig2Present(const Grid &g)
{
    // Ratio and bandwidth saved vs Uncompressed, of intra then inter.
    std::vector<double> ratio[2], bw[2];
    std::printf("%-10s %12s %12s %10s %10s\n", "bench", "intra-ratio",
                "inter-ratio", "intra-BW%", "inter-BW%");
    for (std::size_t w = 0; w < g.size(0); w++) {
        const double bw0 = g.at({w, 0}).get("gb_per_binstr");
        for (std::size_t o = 0; o < 2; o++) {
            const RunRecord &r = g.at({w, 1 + o});
            ratio[o].push_back(r.get("ratio"));
            bw[o].push_back(100.0 * (1.0 - r.get("gb_per_binstr") / bw0));
        }
        std::printf("%-10s %12.2f %12.2f %9.1f%% %9.1f%%\n", g.name(0, w),
                    ratio[0].back(), ratio[1].back(), bw[0].back(),
                    bw[1].back());
    }
    printMeans("intra ratio", ratio[0]);
    printMeans("inter ratio", ratio[1]);
    printMeans("intra BW%", bw[0]);
    printMeans("inter BW%", bw[1]);
}

// ------------------------------------------------------------------
// Figure 6: single-program evaluation over the 54 workloads
// ------------------------------------------------------------------

void
fig6Present(const Grid &g)
{
    constexpr int kN = 5;
    std::vector<double> ratio[kN], ipc_imp[kN], thr_imp[kN];
    double gb_sum[kN] = {};
    std::printf("%-12s | ratio: %-26s | GB/Binstr: %-32s | IPC+%% (A/D/S/M) "
                "| THR+%%\n",
                "workload", "A     D     S     M", "U     A     D     S "
                "    M");
    for (std::size_t w = 0; w < g.size(0); w++) {
        const RunRecord &base = g.at({w, 0});
        double gb[kN];
        for (int i = 0; i < kN; i++) {
            const RunRecord &r = g.at({w, std::size_t(i)});
            ratio[i].push_back(r.get("ratio"));
            gb[i] = r.get("gb_per_binstr");
            gb_sum[i] += gb[i];
            ipc_imp[i].push_back(r.get("ipc") / base.get("ipc"));
            thr_imp[i].push_back(r.get("throughput") / base.get("throughput"));
        }
        std::printf("%-12s |", g.name(0, w));
        for (int i = 1; i < kN; i++)
            std::printf(" %5.2f", ratio[i].back());
        std::printf(" |");
        for (int i = 0; i < kN; i++)
            std::printf(" %5.2f", gb[i]);
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.0f", 100.0 * (ipc_imp[i].back() - 1.0));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.0f", 100.0 * (thr_imp[i].back() - 1.0));
        std::printf("\n");
    }
    std::printf("\nSummary (54 workloads):\n");
    for (int i = 0; i < kN; i++) {
        std::printf("%-14s ratio AMean %5.2f GMean %5.2f | BW reduction "
                    "%+6.1f%% | IPC %+6.1f%% | throughput %+6.1f%%\n",
                    g.name(1, i), stats::amean(ratio[i]),
                    stats::gmean(ratio[i]),
                    100.0 * (1.0 - gb_sum[i] / gb_sum[0]),
                    100.0 * (stats::gmean(ipc_imp[i]) - 1.0),
                    100.0 * (stats::gmean(thr_imp[i]) - 1.0));
    }
}

// ------------------------------------------------------------------
// Figure 7: LBE symbol usage distribution
// ------------------------------------------------------------------

constexpr int kLbeSymbols = static_cast<int>(comp::LbeSymbol::NumSymbols);

const char *
symbolName(int s)
{
    return comp::LbeStats::name(static_cast<comp::LbeSymbol>(s));
}

/** The data-weighted share of each LBE symbol, and of zero data. */
RunRecord
fig7Read(sim::System &sys, const sim::RunResult &)
{
    auto *lc = dynamic_cast<core::LogCache *>(&sys.llc());
    const comp::LbeStats st = lc->lbeStats();
    double total = 0, zero = 0, weighted[kLbeSymbols];
    for (int s = 0; s < kLbeSymbols; s++) {
        const auto sym = static_cast<comp::LbeSymbol>(s);
        weighted[s] = static_cast<double>(st.count[s]) *
                      comp::LbeStats::dataBytes(sym);
        total += weighted[s];
        zero += static_cast<double>(st.zeroCount[s]) *
                comp::LbeStats::dataBytes(sym);
    }
    RunRecord rec;
    for (int s = 0; s < kLbeSymbols; s++)
        rec.metric(std::string("sym_") + symbolName(s),
                   total == 0 ? 0.0 : weighted[s] / total);
    rec.metric("zero_frac", total == 0 ? 0.0 : zero / total);
    return rec;
}

void
fig7Present(const Grid &g)
{
    std::printf("%-10s", "bench");
    for (int s = 0; s < kLbeSymbols; s++)
        std::printf(" %6s", symbolName(s));
    std::printf("   zero%%\n");
    for (std::size_t w = 0; w < g.size(0); w++) {
        const RunRecord &r = g.at({w});
        std::printf("%-10s", g.name(0, w));
        for (int s = 0; s < kLbeSymbols; s++)
            std::printf(" %5.1f%%",
                        100.0 * r.get(std::string("sym_") + symbolName(s)));
        std::printf("  %5.1f%%\n", 100.0 * r.get("zero_frac"));
    }
}

// ------------------------------------------------------------------
// Figure 8: multi-program mixes
// ------------------------------------------------------------------

void
fig8Present(const Grid &g)
{
    constexpr int kN = 5;
    std::printf("%-4s | ratio: %-23s | BW-red%%: %-23s | IPC+%%: %-23s | "
                "completion+%%\n",
                "mix", "A     D     S     M", "A     D     S     M",
                "A     D     S     M");
    std::vector<double> ratios[kN];
    for (std::size_t m = 0; m < g.size(0); m++) {
        const RunRecord *r[kN];
        for (int i = 0; i < kN; i++)
            r[i] = &g.at({m, std::size_t(i)});
        std::printf("%-4s |", g.name(0, m));
        for (int i = 1; i < kN; i++)
            std::printf(" %5.2f", r[i]->get("ratio"));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %5.1f",
                        100.0 * (1.0 - r[i]->get("gb_per_binstr") /
                                           r[0]->get("gb_per_binstr")));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.1f",
                        100.0 * (r[i]->get("gmean_ipc") /
                                     r[0]->get("gmean_ipc") -
                                 1.0));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.1f",
                        100.0 * (r[0]->get("completion_cycles") /
                                     r[i]->get("completion_cycles") -
                                 1.0));
        std::printf("\n");
        for (int i = 0; i < kN; i++)
            ratios[i].push_back(r[i]->get("ratio"));
    }
    std::printf("\n");
    for (int i = 1; i < kN; i++)
        printMeans(g.name(1, i), ratios[i]);
}

// ------------------------------------------------------------------
// Figure 9: memory-subsystem energy
// ------------------------------------------------------------------

const sim::Scheme kEnergySchemes[] = {
    sim::Scheme::Uncompressed, sim::Scheme::Uncompressed8x,
    sim::Scheme::Adaptive, sim::Scheme::Decoupled, sim::Scheme::Sc2,
    sim::Scheme::Morc};

void
fig9Present(const Grid &g)
{
    constexpr int kN = 6;
    std::printf("%-10s | energy (mJ): %-41s | MORC breakdown (norm. to "
                "baseline total)\n",
                "bench", "Unc   Unc8x Adapt Decpl SC2   MORC");
    std::vector<double> norm[kN];
    for (std::size_t w = 0; w < g.size(0); w++) {
        const double base = g.at({w, 0}).get("energy_total");
        std::printf("%-10s |", g.name(0, w));
        for (int i = 0; i < kN; i++) {
            const double e = g.at({w, std::size_t(i)}).get("energy_total");
            std::printf(" %5.2f", 1e3 * e);
            norm[i].push_back(e / base);
        }
        const RunRecord &m = g.at({w, 5});
        std::printf(" | static %.2f dram %.2f sram %.2f comp %.3f "
                    "decomp %.3f\n",
                    m.get("energy_static") / base,
                    m.get("energy_dram") / base,
                    m.get("energy_sram") / base,
                    m.get("energy_comp") / base,
                    m.get("energy_decomp") / base);
    }
    std::printf("\nNormalized energy vs uncompressed (GMean):\n");
    for (int i = 0; i < kN; i++)
        std::printf("%-14s %+6.1f%%\n", g.name(1, i),
                    100.0 * (stats::gmean(norm[i]) - 1.0));
}

// ------------------------------------------------------------------
// Figure 10: per-thread bandwidth sensitivity
// ------------------------------------------------------------------

const double kBandwidths[] = {1600e6, 400e6, 100e6, 12.5e6};

std::string
bwLabel(double bw)
{
    char label[32];
    std::snprintf(label, sizeof(label), "%.1fMB/s", bw / 1e6);
    return label;
}

void
fig10Present(const Grid &g)
{
    constexpr int kN = 5;
    std::printf("%-10s | normalized IPC: %-23s | normalized throughput: "
                "%s\n",
                "BW/thread", "A     D     S     M", "A     D     S     M");
    for (std::size_t b = 0; b < g.size(0); b++) {
        std::vector<double> ipc[kN], thr[kN];
        for (std::size_t w = 0; w < g.size(1); w++) {
            const RunRecord &u = g.at({b, w, 0});
            for (int i = 0; i < kN; i++) {
                const RunRecord &r = g.at({b, w, std::size_t(i)});
                ipc[i].push_back(r.get("ipc") / u.get("ipc"));
                thr[i].push_back(r.get("throughput") /
                                 u.get("throughput"));
            }
        }
        std::printf("%-10s |", g.name(0, b));
        for (int i = 1; i < kN; i++)
            std::printf(" %5.2f", stats::gmean(ipc[i]));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %5.2f", stats::gmean(thr[i]));
        std::printf("\n");
    }
}

// ------------------------------------------------------------------
// Figure 11: LLC capacity sweep
// ------------------------------------------------------------------

const std::uint64_t kLlcSizes[] = {64ull << 10, 128ull << 10,
                                   256ull << 10, 1024ull << 10,
                                   4096ull << 10};

void
fig11Present(const Grid &g)
{
    std::printf("%-10s %14s %16s %22s\n", "LLC size", "MORC ratio",
                "norm. bandwidth", "norm. throughput");
    for (std::size_t s = 0; s < g.size(0); s++) {
        std::vector<double> ratio, thr;
        double gb_base = 0, gb_morc = 0;
        for (std::size_t w = 0; w < g.size(1); w++) {
            const RunRecord &base = g.at({s, w, 0});
            const RunRecord &m = g.at({s, w, 1});
            ratio.push_back(m.get("ratio"));
            // Aggregate traffic, not a mean of per-benchmark ratios:
            // workloads that fit in-cache have near-zero baselines and
            // would dominate a ratio mean with noise.
            gb_base += base.get("gb_per_binstr");
            gb_morc += m.get("gb_per_binstr");
            thr.push_back(m.get("throughput") / base.get("throughput"));
        }
        std::printf("%7lluKB %14.2f %16.2f %22.2f\n",
                    static_cast<unsigned long long>(kLlcSizes[s] >> 10),
                    stats::amean(ratio), gb_morc / gb_base,
                    stats::gmean(thr));
    }
}

// ------------------------------------------------------------------
// Figure 12: write-back-induced invalid lines
// ------------------------------------------------------------------

const char *const kFillPolicies[] = {"inclusive", "non-inclusive"};

void
fig12Present(const Grid &g)
{
    std::vector<double> inc, non;
    std::printf("%-10s %12s %14s\n", "bench", "inclusive%",
                "non-inclusive%");
    for (std::size_t w = 0; w < g.size(0); w++) {
        const double i = 100.0 * g.at({w, 0}).get("invalid_frac");
        const double n = 100.0 * g.at({w, 1}).get("invalid_frac");
        inc.push_back(i);
        non.push_back(n);
        std::printf("%-10s %11.1f%% %13.1f%%\n", g.name(0, w), i, n);
    }
    std::printf("%-10s %11.1f%% %13.1f%%\n", "AMean", stats::amean(inc),
                stats::amean(non));
}

// ------------------------------------------------------------------
// Figure 13: log size / active-log count sweeps
// ------------------------------------------------------------------

const unsigned kLogSizes[] = {64, 256, 512, 1024, 2048, 4096};
const unsigned kLogCounts[] = {1, 4, 8, 16, 32, 64};
constexpr std::size_t kNumLogSizes = std::size(kLogSizes);
// A representative subset keeps the sweep affordable.
const char *const kFig13Subset[] = {"astar",   "gcc",    "mcf",
                                    "omnetpp", "soplex", "zeusmp",
                                    "gamess",  "cactusADM"};

void
fig13Present(const Grid &g)
{
    std::printf("(a) log size sweep, 8 active logs\n%-10s", "bench");
    for (unsigned s : kLogSizes)
        std::printf(" %6uB", s);
    std::printf("\n");
    for (std::size_t w = 0; w < g.size(0); w++) {
        std::printf("%-10s", g.name(0, w));
        for (std::size_t j = 0; j < kNumLogSizes; j++)
            std::printf(" %7.2f", g.at({w, j}).get("ratio"));
        std::printf("\n");
    }
    std::printf("\n(b) active-log sweep, 512B logs\n%-10s", "bench");
    for (unsigned c : kLogCounts)
        std::printf(" %6u", c);
    std::printf("\n");
    for (std::size_t w = 0; w < g.size(0); w++) {
        std::printf("%-10s", g.name(0, w));
        for (std::size_t j = kNumLogSizes; j < g.size(1); j++)
            std::printf(" %6.2f", g.at({w, j}).get("ratio"));
        std::printf("\n");
    }
}

// ------------------------------------------------------------------
// Figure 14: access latency (log position) distribution
// ------------------------------------------------------------------

const std::vector<std::uint64_t> kFig14Bounds = {64,  128, 196, 256,
                                                 320, 384, 448, 512};

/** Hit-latency bounds in cycles: log-decompression costs cluster in the
 *  tens of cycles, so buckets fan out from the uncompressed hit time. */
const std::vector<std::uint64_t> kFig14LatencyBounds = {
    16, 24, 32, 48, 64, 96, 128, 192, 256};

Run
fig14Point(const Point &p)
{
    Run run = morcInternals(trace::spec2006()[p[0]]);
    // The System fills the histograms through the config's pointers;
    // the reader owns them until the record has copied them.
    auto pos = std::make_shared<stats::Histogram>(kFig14Bounds);
    auto lat = std::make_shared<stats::Histogram>(kFig14LatencyBounds);
    run.cfg.decompressedBytesHistogram = pos.get();
    run.cfg.hitLatencyHistogram = lat.get();
    run.read = [pos, lat](sim::System &, const sim::RunResult &) {
        RunRecord rec;
        rec.histograms.emplace_back("log_position_bytes", *pos);
        rec.histograms.emplace_back("hit_latency_cycles", *lat);
        return rec;
    };
    return run;
}

void
fig14Present(const Grid &g)
{
    for (std::size_t h = 0; h < 2; h++) {
        std::printf("%s%-10s", h == 0 ? "" : "\nhit latency (cycles):\n",
                    "bench");
        const stats::Histogram &labels = g.at({0}).histograms[h].second;
        for (std::size_t i = 0; i < labels.numBuckets(); i++)
            std::printf(" %8s", labels.label(i).c_str());
        std::printf("\n");
        for (std::size_t w = 0; w < g.size(0); w++) {
            const stats::Histogram &hist = g.at({w}).histograms[h].second;
            std::printf("%-10s", g.name(0, w));
            for (std::size_t i = 0; i < hist.numBuckets(); i++)
                std::printf("   %5.1f%%", 100.0 * hist.fraction(i));
            std::printf("\n");
        }
    }
}

// ------------------------------------------------------------------
// Figure 15: separate vs merged tag/data logs
// ------------------------------------------------------------------

const sim::Scheme kTagLogSchemes[] = {sim::Scheme::Morc,
                                      sim::Scheme::MorcMerged};

void
fig15Present(const Grid &g)
{
    std::vector<double> base, merged;
    std::printf("%-10s %10s %12s\n", "bench", "MORC", "MORCMerged");
    for (std::size_t w = 0; w < g.size(0); w++) {
        const double r0 = g.at({w, 0}).get("ratio");
        const double r1 = g.at({w, 1}).get("ratio");
        base.push_back(r0);
        merged.push_back(r1);
        std::printf("%-10s %10.2f %12.2f\n", g.name(0, w), r0, r1);
    }
    printMeans("MORC", base);
    printMeans("MORCMerged", merged);
}

// ------------------------------------------------------------------
// Table 1: energy constants
// ------------------------------------------------------------------

void
table1Present(const Grid &g)
{
    const RunRecord &rec = g.at({0});
    std::printf("%-40s %12s %10s\n", "Operation", "Energy", "Scale");
    const double base = rec.metrics.front().second;
    for (const auto &[op, joules] : rec.metrics) {
        char buf[32];
        if (joules < 1e-9)
            std::snprintf(buf, sizeof(buf), "%.2fpJ", joules * 1e12);
        else
            std::snprintf(buf, sizeof(buf), "%.2fnJ", joules * 1e9);
        std::printf("%-40s %12s %9.0fx\n", op.c_str(), buf,
                    joules / base);
    }
    std::printf("\nPaper scale column: 1x / 2x / 22.5x / 185x / 1250x / "
                "4675x\n");
}

// ------------------------------------------------------------------
// Table 4: storage overheads
// ------------------------------------------------------------------

RunRecord
table4Record(const Point &p, std::uint64_t)
{
    const cache::OverheadReport row = cache::table4Overheads()[p[0]];
    RunRecord rec;
    rec.label("scheme", row.scheme);
    rec.metric("extra_tags_frac", row.extraTagsFrac);
    rec.metric("metadata_frac", row.metadataFrac);
    rec.metric("total_frac", row.totalFrac);
    rec.metric("comp_engine_mm2", row.compEngineMm2);
    rec.metric("dict_bytes", static_cast<double>(row.dictBytes));
    return rec;
}

void
table4Present(const Grid &g)
{
    std::printf("(128KB cache, 40b tags, 16-way sets for prior work, "
                "512B logs, 8x LMT)\n\n");
    std::printf("%-12s %9s %9s %11s %9s %9s\n", "Scheme", "Tags",
                "Metadata", "Tags+Meta", "Engine", "Dict");
    for (std::size_t s = 0; s < g.size(0); s++) {
        const RunRecord &r = g.at({s});
        const double engineMm2 = r.get("comp_engine_mm2");
        const unsigned dictBytes =
            static_cast<unsigned>(r.get("dict_bytes"));
        char engine[16];
        if (engineMm2 > 0)
            std::snprintf(engine, sizeof(engine), "%.2fmm2", engineMm2);
        else
            std::snprintf(engine, sizeof(engine), "NoData");
        char dict[16];
        if (dictBytes >= 1024)
            std::snprintf(dict, sizeof(dict), "%uKB", dictBytes / 1024);
        else
            std::snprintf(dict, sizeof(dict), "%uB", dictBytes);
        std::printf("%-12s %8.2f%% %8.2f%% %10.2f%% %9s %9s\n",
                    g.name(0, s), 100 * r.get("extra_tags_frac"),
                    100 * r.get("metadata_frac"),
                    100 * r.get("total_frac"), engine, dict);
    }
    std::printf("\nPaper row 'Tags+Meta': 18.74%% / 8.59%% / 33.58%% / "
                "25.00%% / 17.18%%\n");
}

// ------------------------------------------------------------------
// Ablation: stream/line codecs on identical fill streams
// ------------------------------------------------------------------

const unsigned kTagBases[] = {1, 2};

RunRecord
codecRecord(const trace::BenchmarkSpec &spec, std::uint64_t seed)
{
    trace::ValueModel vm(spec.data);
    Rng rng(seed);
    const std::uint64_t ws_lines = spec.access.wsBytes / kLineSize;
    comp::LbeEncoder lbe;
    comp::LzssEncoder lz;
    comp::CpackEncoder cpack_stream(512); // same dict budget
    std::uint64_t b_lbe = 0, b_lz = 0, b_cp = 0, b_fpc = 0, b_bdi = 0;
    std::uint64_t log_lbe = 0, log_lz = 0, log_cp = 0;
    int n = 0;
    for (int burst = 0; burst < 120; burst++) {
        const std::uint64_t base = rng.below(ws_lines) & ~15ull;
        for (int i = 0; i < 16; i++) {
            const CacheLine l = vm.line(base + i, 0);
            const auto add = [&](std::uint64_t &total, std::uint64_t &log,
                                 std::uint32_t bits, auto &enc) {
                total += bits;
                log += bits;
                if (log > 4096) { // 512B log flush
                    enc.reset();
                    log = 0;
                }
            };
            add(b_lbe, log_lbe, lbe.append(l), lbe);
            add(b_lz, log_lz, lz.append(l), lz);
            add(b_cp, log_cp, cpack_stream.append(l), cpack_stream);
            b_fpc += comp::Fpc::lineBits(l);
            b_bdi += comp::Bdi::lineBits(l);
            n++;
        }
    }
    const double raw = 512.0 * n;
    RunRecord rec;
    rec.label("workload", spec.name);
    rec.metric("lbe", raw / b_lbe);
    rec.metric("lzss", raw / b_lz);
    rec.metric("cpack", raw / b_cp);
    rec.metric("fpc", raw / b_fpc);
    rec.metric("bdi", raw / b_bdi);
    return rec;
}

RunRecord
tagCodecRecord(unsigned bases, std::uint64_t seed)
{
    comp::TagCodec codec(bases);
    Rng rng(seed);
    std::uint64_t bits = 0;
    std::uint64_t chain_a = 1'000'000, chain_b = 9'000'000;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
        if (i & 1)
            bits += codec.append(chain_a += 1 + rng.below(3));
        else
            bits += codec.append(chain_b += 1 + rng.below(3));
    }
    RunRecord rec;
    rec.label("bases", std::to_string(bases));
    rec.metric("bits_per_tag", static_cast<double>(bits) / n);
    return rec;
}

void
ablationPresent(const Grid &g)
{
    const std::size_t workloads = trace::spec2006().size();
    const char *metric[] = {"lbe", "lzss", "cpack", "fpc", "bdi"};
    const char *label[] = {"LBE", "LZSS", "C-Pack", "FPC", "BDI"};
    std::vector<double> ratio[std::size(metric)];
    std::printf("%-10s %7s %7s %8s %7s %7s\n", "bench", "LBE", "LZSS",
                "C-Packs", "FPC", "BDI");
    for (std::size_t w = 0; w < workloads; w++) {
        for (std::size_t c = 0; c < std::size(metric); c++)
            ratio[c].push_back(g.at({w}).get(metric[c]));
        std::printf("%-10s %7.2f %7.2f %8.2f %7.2f %7.2f\n", g.name(0, w),
                    ratio[0].back(), ratio[1].back(), ratio[2].back(),
                    ratio[3].back(), ratio[4].back());
    }
    for (std::size_t c = 0; c < std::size(metric); c++)
        printMeans(label[c], ratio[c]);

    std::printf("\nTag codec: interleaved fill + write-back chains\n");
    for (std::size_t b = 0; b < std::size(kTagBases); b++) {
        std::printf("  %u base(s): %.1f bits/tag (vs %u raw)\n",
                    kTagBases[b],
                    g.at({workloads + b}).get("bits_per_tag"),
                    comp::TagCodec::kFullTagBits + 2);
    }
}

// ------------------------------------------------------------------
// Mesh scaling: tiled substrate, 1 -> 64 tiles, fixed total bandwidth
// ------------------------------------------------------------------

/** Square mesh dimensions: 1, 4, 16, 64 tiles. */
const unsigned kMeshDims[] = {1, 2, 4, 8};

/** Tile workloads, assigned round-robin across cores. */
const char *const kMeshPrograms[] = {"gcc", "mcf", "omnetpp", "soplex"};

Run
meshPoint(const Point &p)
{
    const unsigned dim = kMeshDims[p[0]];
    const unsigned tiles = dim * dim;
    std::vector<std::string> programs;
    for (unsigned c = 0; c < tiles; c++)
        programs.push_back(kMeshPrograms[c % 4]);
    Run run = multi(programs, kUncompressedVsMorc[p[1]], 8, 10'000);
    // Total off-chip bandwidth is held at 1600 MB/s regardless of tile
    // count, so scaling stresses the shared memory system exactly as
    // the paper's manycore argument requires.
    run.cfg.bandwidthPerCore = 1600e6 / tiles;
    run.cfg.useMesh = true;
    run.cfg.meshCfg.width = dim;
    run.cfg.meshCfg.height = dim;
    run.cfg.meshCfg.memControllers = std::max(1u, dim / 2);
    run.labels = {{"tiles", std::to_string(tiles)},
                  {"mesh", std::to_string(dim) + "x" + std::to_string(dim)},
                  {"scheme", sim::schemeName(run.cfg.scheme)}};
    return run;
}

void
meshPresent(const Grid &g)
{
    std::printf("%-6s | thr/tile: %-20s | IPC/tile: %-20s | MORC: ratio "
                "hops  messages\n",
                "tiles", "Unc   MORC  MORC/Unc", "Unc   MORC  MORC/Unc");
    for (std::size_t d = 0; d < g.size(0); d++) {
        const RunRecord &u = g.at({d, 0});
        const RunRecord &m = g.at({d, 1});
        std::printf("%-6u | %5.2f %5.2f %9.2f  | %5.2f %5.2f %9.2f  | "
                    "%10.2f %5.2f %9.0f\n",
                    kMeshDims[d] * kMeshDims[d], u.get("mean_throughput"),
                    m.get("mean_throughput"),
                    m.get("mean_throughput") / u.get("mean_throughput"),
                    u.get("sys_ipc_per_tile"), m.get("sys_ipc_per_tile"),
                    m.get("sys_ipc_per_tile") / u.get("sys_ipc_per_tile"),
                    m.get("ratio"), m.get("noc_mean_hops"),
                    m.get("noc_messages"));
    }
}

// ------------------------------------------------------------------
// KV serving: the compressed cache as a memcached-style hot tier
// ------------------------------------------------------------------

/** Hot-tier schemes compared by the serving figure: MORC plus the
 *  uncompressed and the two strongest compressed baselines. */
const sim::Scheme kKvSchemes[] = {sim::Scheme::Uncompressed,
                                  sim::Scheme::Adaptive,
                                  sim::Scheme::Sc2, sim::Scheme::Morc};

/** Requests served per task: scaled off the shared instruction budget
 *  so --smoke and full runs use one knob. */
std::uint64_t
kvRequests()
{
    return std::max<std::uint64_t>(g_instr / 8, 2'000);
}

/**
 * The canonical 4-tenant service: >=1M keys total, distinct skews,
 * QoS weights, GET/SET mixes, and working-set drift per tenant.
 */
kv::ServiceConfig
kvBaseConfig(sim::Scheme scheme)
{
    kv::ServiceConfig cfg;
    cfg.scheme = scheme;
    cfg.frontBytes = 2ull << 20;
    cfg.seed = 0x6b76;
    cfg.telemetryEpoch = g_telemetryEpoch;
    cfg.tier.dramBytes = 8ull << 20;
    cfg.tier.ssdBytes = 32ull << 20;
    cfg.values.seed = 0x76616c;
    // social: hot skew, read-heavy, fast-drifting feed-of-the-hour.
    cfg.tenants.push_back(
        {"social", 262144, 1.1, 4, 0.05, 4096, 997});
    // search: flatter skew, almost read-only, stable corpus.
    cfg.tenants.push_back({"search", 262144, 0.8, 2, 0.02, 0, 0});
    // feed: hottest skew, write-heavy fan-out, slow drift.
    cfg.tenants.push_back({"feed", 262144, 1.2, 1, 0.3, 8192, 4999});
    // analytics: near-uniform scans, write-heavy counters.
    cfg.tenants.push_back({"analytics", 262144, 0.6, 1, 0.5, 0, 0});
    return cfg;
}

/** Run one service config for @p requests and flatten it into a
 *  RunRecord labelled by the front cache's scheme. */
RunRecord
kvRecord(const kv::ServiceConfig &cfg, std::uint64_t requests)
{
    kv::Service svc(cfg);
    svc.run(requests);

    RunRecord rec;
    rec.label("scheme", sim::schemeName(cfg.scheme));
    const cache::LlcStats &fs = svc.front().stats();
    const kv::TierStats &ts = svc.tiers().stats();
    const double reads = std::max<double>(1.0, double(fs.reads));
    const double hitRate = double(fs.readHits) / reads;
    const double frontMib =
        double(cfg.frontBytes) / double(1u << 20);
    rec.metric("requests", double(svc.requests()));
    rec.metric("cycles", double(svc.cycles()));
    rec.metric("hit_rate", hitRate);
    rec.metric("hit_rate_per_mb", hitRate / frontMib);
    rec.metric("front_ratio", svc.front().compressionRatio());
    const double fetches = std::max<double>(
        1.0, double(ts.dramHits + ts.ssdHits + ts.originFetches));
    rec.metric("dram_hit_frac", double(ts.dramHits) / fetches);
    rec.metric("ssd_hit_frac", double(ts.ssdHits) / fetches);
    rec.metric("origin_frac", double(ts.originFetches) / fetches);
    rec.metric("promotions", double(ts.promotions));
    rec.metric("demotions", double(ts.demotions));
    rec.metric("dram_lines", double(svc.tiers().dramLines()));
    rec.metric("ssd_lines", double(svc.tiers().ssdLines()));
    // Aggregate and per-tenant served throughput in requests per
    // kilocycle — the QoS number a per-tenant SLO would track.
    const double kcycles =
        std::max<double>(1.0, double(svc.cycles())) / 1000.0;
    rec.metric("throughput_rpk", double(svc.requests()) / kcycles);
    for (std::size_t t = 0; t < cfg.tenants.size(); t++) {
        const kv::TenantStats &st = svc.tenantStats(unsigned(t));
        const std::string &name = cfg.tenants[t].name;
        rec.metric("thr_rpk_" + name, double(st.requests) / kcycles);
        rec.metric("mean_lat_" + name,
                   double(st.latencySum) /
                       std::max<double>(1.0, double(st.requests)));
    }
    for (double q : {0.50, 0.99, 0.999}) {
        const std::string p =
            q == 0.50 ? "p50" : (q == 0.99 ? "p99" : "p99.9");
        rec.percentile("latency.all", p,
                       kv::histPercentile(svc.latency(), q));
        for (std::size_t t = 0; t < cfg.tenants.size(); t++) {
            rec.percentile(
                "latency." + cfg.tenants[t].name, p,
                kv::histPercentile(svc.tenantLatency(unsigned(t)), q));
        }
    }
    rec.histograms.emplace_back("latency", svc.latency());
    rec.series = svc.series();
    return rec;
}

/** Point @p i (0 = p50, 1 = p99, 2 = p99.9) of a KV run's latency over
 *  all tenants; 0 when the run has none. */
double
allLatency(const RunRecord &r, std::size_t i)
{
    for (const auto &[group, points] : r.percentiles) {
        if (group == "latency.all")
            return points[i].second;
    }
    return 0.0;
}

RunRecord
kvServeRecord(const Point &p, std::uint64_t)
{
    const kv::ServiceConfig cfg = kvBaseConfig(kKvSchemes[p[0]]);
    RunRecord rec = kvRecord(cfg, kvRequests());
    rec.label("tenants", std::to_string(cfg.tenants.size()));
    std::uint64_t keys = 0;
    for (const auto &t : cfg.tenants)
        keys += t.keys;
    rec.label("total_keys", std::to_string(keys));
    return rec;
}

void
kvServePresent(const Grid &g)
{
    std::printf("%-13s | hit%%   hit%%/MB  ratio | p50    p99    p99.9"
                "  | thr r/kcyc (soc/sea/feed/ana)\n",
                "scheme");
    for (std::size_t s = 0; s < g.size(0); s++) {
        const RunRecord &r = g.at({s});
        std::printf(
            "%-13s | %5.1f  %6.2f  %5.2f | %-6.0f %-6.0f %-6.0f | "
            "%5.2f (%.2f/%.2f/%.2f/%.2f)\n",
            g.name(0, s), 100.0 * r.get("hit_rate"),
            100.0 * r.get("hit_rate_per_mb"), r.get("front_ratio"),
            allLatency(r, 0), allLatency(r, 1), allLatency(r, 2),
            r.get("throughput_rpk"), r.get("thr_rpk_social"),
            r.get("thr_rpk_search"), r.get("thr_rpk_feed"),
            r.get("thr_rpk_analytics"));
    }
}

// ------------------------------------------------------------------
// KV tiering: per-tier compression on the DRAM/SSD backing store
// ------------------------------------------------------------------

struct KvTierPoint
{
    const char *name;
    bool dramCompressed;
    bool ssdCompressed;
};

const KvTierPoint kKvTierPoints[] = {
    {"raw", false, false},
    {"dram-only", true, false},
    {"both", true, true},
};

RunRecord
kvTierRecord(const Point &p, std::uint64_t)
{
    const KvTierPoint &pt = kKvTierPoints[p[1]];
    kv::ServiceConfig cfg = kvBaseConfig(kUncompressedVsMorc[p[0]]);
    // Tight tiers so capacity effects dominate: the compressed DRAM
    // tier must *earn* extra residency from the value classes.
    cfg.tier.dramBytes = 4ull << 20;
    cfg.tier.ssdBytes = 4ull << 20;
    cfg.tier.dramCompressed = pt.dramCompressed;
    cfg.tier.ssdCompressed = pt.ssdCompressed;
    // The tiering figure only says anything once the 4 MB DRAM tier is
    // full and eviction/promotion traffic is steady-state; under the
    // --smoke budget the shared kvRequests() knob leaves it
    // cold-miss-dominated, so tiering gets a higher floor.
    RunRecord rec =
        kvRecord(cfg, std::max<std::uint64_t>(kvRequests(), 60'000));
    rec.label("tier_compression", pt.name);
    return rec;
}

void
kvTierPresent(const Grid &g)
{
    std::printf("%-13s %-10s | dram%%  ssd%%  origin%% | dram_lines "
                "ssd_lines | p99     p99.9\n",
                "scheme", "tiers");
    for (std::size_t s = 0; s < g.size(0); s++) {
        for (std::size_t t = 0; t < g.size(1); t++) {
            const RunRecord &r = g.at({s, t});
            std::printf("%-13s %-10s | %5.1f %5.1f  %6.1f  | %10.0f "
                        "%9.0f | %-7.0f %-7.0f\n",
                        g.name(0, s), g.name(1, t),
                        100.0 * r.get("dram_hit_frac"),
                        100.0 * r.get("ssd_hit_frac"),
                        100.0 * r.get("origin_frac"),
                        r.get("dram_lines"), r.get("ssd_lines"),
                        allLatency(r, 1), allLatency(r, 2));
        }
    }
}

// ------------------------------------------------------------------
// Lifetime: NVM wear/endurance ranking of every scheme in the arena
// ------------------------------------------------------------------

/** Three compressibility regimes: gcc (zero-heavy), leslie3d
 *  (FP/m256-heavy), h264ref (narrow-integer-heavy). */
const char *const kLifetimeWorkloads[] = {"gcc", "leslie3d", "h264ref"};

/** Value of lifetime point @p key of @p r (0 when absent). */
double
lifetimeOf(const RunRecord &r, const char *key)
{
    for (const auto &p : r.lifetime) {
        if (p.first == key)
            return p.second;
    }
    return 0.0;
}

void
lifetimePresent(const Grid &g)
{
    struct Row
    {
        const char *name;
        double years, imbalance, flips, ratio, hitPerMb;
    };
    std::vector<Row> rows;
    for (std::size_t s = 0; s < g.size(0); s++) {
        std::vector<double> years, imb, flips, ratio, hit;
        for (std::size_t w = 0; w < g.size(1); w++) {
            const RunRecord &r = g.at({s, w});
            // An idle run forecasts infinity (rendered 1e308); cap so
            // the geometric mean stays finite and the row sorts last
            // among the writers.
            years.push_back(std::min(lifetimeOf(r, "years"), 1.0e12));
            imb.push_back(lifetimeOf(r, "imbalance"));
            flips.push_back(lifetimeOf(r, "flips_per_cell_per_sec"));
            ratio.push_back(r.get("ratio"));
            hit.push_back(r.get("llc_hit_rate"));
        }
        const bool eightX =
            sim::allSchemes()[s].scheme == sim::Scheme::Uncompressed8x;
        const double mb = (eightX ? 8.0 : 1.0) * 128.0 / 1024.0;
        rows.push_back({g.name(0, s), stats::gmean(years),
                        stats::amean(imb), stats::amean(flips),
                        stats::gmean(ratio), stats::amean(hit) / mb});
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.years > b.years;
                     });
    std::printf("%-4s %-14s | %12s %9s %14s | %6s %8s\n", "rank",
                "scheme", "years(GMean)", "imbalance", "flips/cell/s",
                "ratio", "hit%/MB");
    for (std::size_t i = 0; i < rows.size(); i++) {
        const Row &r = rows[i];
        std::printf("%-4zu %-14s | %12.2f %9.2f %14.4f | %6.2f %8.1f\n",
                    i + 1, r.name, r.years, r.imbalance, r.flips,
                    r.ratio, 100.0 * r.hitPerMb);
    }
}

// ------------------------------------------------------------------
// Registry and drivers
// ------------------------------------------------------------------

const std::vector<Figure> &
figures()
{
    const auto byName = [](const auto &v) -> std::string { return v.name; };
    const auto names = [](const auto &values) {
        return Axis(std::begin(values), std::end(values));
    };
    static const Axis spec2006 = axis(trace::spec2006(), byName);
    static const std::vector<Figure> kFigures = {
        {"table1", "Table 1: Energy of on-chip and off-chip operations "
                   "(64b of data)",
         "1x / 2x / 22.5x / 185x / 1250x / 4675x scale column",
         {Axis{"constants"}}, table1Present, nullptr,
         [](const Point &, std::uint64_t) {
             RunRecord rec;
             for (const auto &row : energy::table1())
                 rec.metric(row.operation, row.joules);
             return rec;
         }},
        {"table4", "Table 4: Overheads of compression schemes, "
                   "normalized to cache capacity",
         "Tags+Meta 18.74% / 8.59% / 33.58% / 25.00% / 17.18%",
         {axis(cache::table4Overheads(),
               [](const cache::OverheadReport &r) { return r.scheme; })},
         table4Present, nullptr, table4Record},
        {"fig2", "Figure 2: Oracle intra-line vs inter-line compression",
         "intra ~2x ratio / ~20% BW reduction; inter ~24x / ~80%",
         {spec2006, axis(kOracles, sim::schemeName)}, fig2Present,
         [](const Point &p) {
             return single(trace::spec2006()[p[0]], kOracles[p[1]]);
         }},
        {"fig6", "Figure 6: single-program compression / bandwidth / "
                 "IPC / throughput",
         "MORC ~2.9x ratio (next best 1.9x); MORC -27% BW (next "
         "-10.8%); IPC +22%; throughput +37% (next +20%)",
         {axis(trace::figure6Workloads(), byName),
          axis(kCompared, sim::schemeName)},
         fig6Present,
         [](const Point &p) {
             static const auto workloads = trace::figure6Workloads();
             return single(workloads[p[0]], kCompared[p[1]]);
         }},
        {"fig7", "Figure 7: LBE symbol usage distribution "
                 "(data-weighted)",
         "m256 significant for cactusADM/gamess/leslie3d/povray; gcc "
         "mostly zeros; h264ref u8/u16-heavy",
         {spec2006}, fig7Present,
         [](const Point &p) {
             Run run = morcInternals(trace::spec2006()[p[0]]);
             run.read = fig7Read;
             return run;
         }},
        {"fig8", "Figure 8: multi-program (16 threads, shared LLC, "
                 "1600MB/s)",
         "MORC ~4x ratio avg, up to 7x (next best 1.75x); BW -20%; "
         "IPC up to +60% (S5); completion M3 +35%",
         {axis(trace::table6Workloads(), byName),
          axis(kCompared, sim::schemeName)},
         fig8Present,
         [](const Point &p) {
             // 16 cores at the default 100 MB/s each: 1600 MB/s total.
             const auto &mix = trace::table6Workloads()[p[0]];
             Run run = multi(mix.programs, kCompared[p[1]], 4, 0);
             run.labels = {{"mix", mix.name},
                           {"scheme", sim::schemeName(kCompared[p[1]])}};
             return run;
         }},
        {"fig9", "Figure 9: memory subsystem energy",
         "MORC -17% vs uncompressed; beats the 1MB Uncompressed8x "
         "baseline; decompression energy visible but small vs DRAM",
         {spec2006, axis(kEnergySchemes, sim::schemeName)}, fig9Present,
         [](const Point &p) {
             return single(trace::spec2006()[p[0]], kEnergySchemes[p[1]]);
         }},
        {"fig10", "Figure 10: sensitivity to per-thread bandwidth",
         "at 1600MB/s MORC costs ~7% IPC, no throughput loss; at "
         "12.5MB/s MORC +63% throughput",
         {axis(kBandwidths, bwLabel), spec2006,
          axis(kCompared, sim::schemeName)},
         fig10Present,
         [](const Point &p) {
             Run run = single(trace::spec2006()[p[1]], kCompared[p[2]]);
             run.cfg.bandwidthPerCore = kBandwidths[p[0]];
             return run;
         }},
        {"fig11", "Figure 11: MORC at other cache sizes",
         "BW savings 33-37% and throughput +35-46% from 64KB to 1MB; "
         "benefits fade by 4MB",
         {axis(kLlcSizes,
               [](std::uint64_t s) {
                   return std::to_string(s >> 10) + "KB";
               }),
          spec2006, axis(kUncompressedVsMorc, sim::schemeName)},
         fig11Present,
         [](const Point &p) {
             Run run = single(trace::spec2006()[p[1]],
                              kUncompressedVsMorc[p[2]]);
             run.cfg.llcBytesPerCore = kLlcSizes[p[0]];
             // Caches much larger than 128KB need proportionally longer
             // warm-up to fill; bounded to keep the default sweep
             // affordable.
             run.warmup *= std::clamp<std::uint64_t>(
                 kLlcSizes[p[0]] / (128 * 1024), 1, 2);
             return run;
         }},
        {"fig12", "Figure 12: write-back-induced invalid lines "
                  "(compression disabled)",
         "non-inclusive significantly reduces invalid fraction vs "
         "inclusive",
         {spec2006, names(kFillPolicies)}, fig12Present,
         [](const Point &p) {
             Run run = morcInternals(trace::spec2006()[p[0]]);
             run.cfg.useMorcOverride = true;
             run.cfg.morc.compressionEnabled = false;
             run.cfg.inclusiveWriteFills = p[1] == 0;
             run.labels.emplace_back("fill_policy", kFillPolicies[p[1]]);
             return run;
         }},
        {"fig13", "Figure 13: log size and active-log count sweeps "
                  "(unlimited tags/LMT)",
         "512-byte logs with 8 active logs are near-optimal",
         // The point axis: the log-size sweep at 8 active logs, then
         // the active-log sweep at 512-byte logs.
         {names(kFig13Subset),
          [] {
              Axis a;
              for (unsigned s : kLogSizes)
                  a.push_back("logbytes" + std::to_string(s));
              for (unsigned c : kLogCounts)
                  a.push_back("logs" + std::to_string(c));
              return a;
          }()},
         fig13Present,
         [](const Point &p) {
             Run run = single(trace::resolveWorkload(kFig13Subset[p[0]]),
                              sim::Scheme::Morc);
             const bool sizes = p[1] < kNumLogSizes;
             run.cfg.useMorcOverride = true;
             run.cfg.morc.logBytes = sizes ? kLogSizes[p[1]] : 512;
             run.cfg.morc.activeLogs =
                 sizes ? 8 : kLogCounts[p[1] - kNumLogSizes];
             run.cfg.morc.unlimitedMeta = true;
             return run;
         }},
        {"fig14", "Figure 14: MORC access latency (log position) "
                  "distribution",
         "fairly even distribution across log positions", {spec2006},
         fig14Present, fig14Point},
        {"fig15", "Figure 15: separate vs merged tag/data logs",
         "MORCMerged within ~0.5x of MORC on most workloads",
         {spec2006, axis(kTagLogSchemes, sim::schemeName)}, fig15Present,
         [](const Point &p) {
             return single(trace::spec2006()[p[0]], kTagLogSchemes[p[1]]);
         }},
        {"ablation", "Ablation: stream/line codecs on identical fill "
                     "streams",
         "LZ ~ LBE (Section 6); C-Pack capped by per-word pointers; "
         "intra-line codecs (FPC/BDI) trail inter-line ones",
         // The workloads, then the tag codec at each base count.
         {[&] {
             Axis a = spec2006;
             for (unsigned bases : kTagBases)
                 a.push_back("tagcodec/" + std::to_string(bases) + "base");
             return a;
         }()},
         ablationPresent, nullptr,
         [](const Point &p, std::uint64_t seed) {
             const std::size_t n = trace::spec2006().size();
             return p[0] < n ? codecRecord(trace::spec2006()[p[0]], seed)
                             : tagCodecRecord(kTagBases[p[0] - n], seed);
         }},
        {"mesh", "Mesh scaling: tiled substrate (banked LLC over a 2D "
                 "mesh, fixed 1600MB/s total bandwidth), 1 to 64 tiles",
         "compression's benefit grows with core count as off-chip "
         "bandwidth per tile shrinks (Section 1 manycore argument)",
         {axis(kMeshDims,
               [](unsigned d) { return std::to_string(d * d) + "t"; }),
          axis(kUncompressedVsMorc, sim::schemeName)},
         meshPresent, meshPoint},
        {"kvserve", "KV serving: MORC vs baselines as the hot tier of "
                    "a 4-tenant memcached-style service (>=1M keys, "
                    "Zipf traffic, working-set drift)",
         "beyond the paper: hit-rate-per-byte and p50/p99/p99.9 tail "
         "latency under service-shaped traffic (ZipCache-style "
         "evaluation)",
         {axis(kKvSchemes, sim::schemeName)}, kvServePresent, nullptr,
         kvServeRecord},
        {"kvtier", "KV tiering: per-tier compression on the DRAM/SSD "
                   "backing store behind the service's front cache",
         "beyond the paper: compressed tiers trade origin fetches for "
         "residency (ZipCache's DRAM/SSD argument)",
         {axis(kUncompressedVsMorc, sim::schemeName),
          axis(kKvTierPoints, byName)},
         kvTierPresent, nullptr, kvTierRecord},
        {"lifetime", "Lifetime: NVM wear and years-to-failure ranking "
                     "of every scheme (L2C2-style endurance model)",
         "beyond the paper: compression reduces programmed bits, but "
         "log-structured writes also level wear across sets (L2C2's "
         "endurance argument)",
         {axis(sim::allSchemes(), byName), names(kLifetimeWorkloads)},
         lifetimePresent,
         [](const Point &p) {
             return single(trace::findBenchmark(kLifetimeWorkloads[p[1]]),
                           sim::allSchemes()[p[0]].scheme);
         },
         nullptr, {1, 0}}, // scheme-major tasks, workload-first keys
    };
    return kFigures;
}

/**
 * Run one figure's sweep on @p jobs threads and assemble its report.
 *
 * With a @p journal (--checkpoint-dir), tasks whose key is already
 * journaled return their stored record without simulating, and every
 * freshly finished task is appended to the journal before the sweep
 * moves on — so a killed run resumes where it left off and reproduces
 * the uninterrupted report byte for byte.
 */
stats::Report
runFigure(const Figure &fig, unsigned jobs, sweep::Journal *journal)
{
    std::vector<Task> tasks;
    std::size_t resumed = 0, total = 1;
    for (const Axis &a : fig.axes)
        total *= a.size();
    // Task t runs the grid position whose row-major index is t (the
    // inverse of Grid::at): the last axis varies fastest.
    for (std::size_t t = 0; t < total; t++) {
        Point p(fig.axes.size());
        for (std::size_t a = p.size(), rest = t; a-- > 0;
             rest /= fig.axes[a].size())
            p[a] = rest % fig.axes[a].size();
        std::string key = fig.name;
        for (std::size_t i = 0; i < p.size(); i++) {
            const std::size_t a = fig.keyOrder.empty() ? i : fig.keyOrder[i];
            key += '/' + fig.axes[a][p[a]];
        }
        const RunRecord *done = journal ? journal->lookup(key) : nullptr;
        resumed += done != nullptr;
        tasks.push_back(Task{key, [&fig, p, journal, done,
                                   key](std::uint64_t seed) {
            if (done)
                return *done;
            RunRecord rec = fig.simulate ? runPoint(fig.simulate(p))
                                         : fig.record(p, seed);
            if (journal) {
                rec.key = key; // the engine stamps it only afterwards
                journal->append(rec);
            }
            return rec;
        }});
    }
    if (resumed > 0) {
        std::fprintf(stderr,
                     "[checkpoint] %s: resuming, %zu/%zu tasks "
                     "already journaled\n",
                     fig.name, resumed, tasks.size());
    }
    stats::Report rep;
    rep.figure = fig.name;
    rep.title = fig.title;
    rep.instrBudget = g_instr;
    rep.warmupBudget = g_warmup;
    rep.runs = sweep::Engine(jobs).run(tasks);
    return rep;
}

/** A value option: `NAME V`, `ALIAS V` or `NAME=V`. It sets either a
 *  string or a count in [lo, hi]. */
struct Option
{
    const char *name;
    const char *alias;
    std::string *text;
    std::uint64_t *count;
    std::uint64_t lo, hi;
};

int
sweepMain(int argc, char **argv)
{
    std::uint64_t jobs = 0; // hardware_concurrency
    std::string outDir;
    std::string traceOut;
    std::string checkpointDir;
    constexpr std::uint64_t kMax = UINT64_MAX;
    const Option options[] = {
        {"--jobs", "-j", nullptr, &jobs, 0, 4096},
        {"--telemetry-epoch", nullptr, nullptr, &g_telemetryEpoch, 1, kMax},
        {"--trace-out", nullptr, &traceOut, nullptr, 0, 0},
        {"--checkpoint-dir", nullptr, &checkpointDir, nullptr, 0, 0},
        {"--out", "-o", &outDir, nullptr, 0, 0},
    };
    std::vector<std::string> names;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const Option *opt = nullptr;
        const char *value = nullptr;
        for (const Option &o : options) {
            const std::size_t n = std::strlen(o.name);
            if (arg == o.name || (o.alias && arg == o.alias)) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s needs a value\n",
                                 arg.c_str());
                    return 1;
                }
                opt = &o;
                value = argv[++i];
            } else if (arg.compare(0, n, o.name) == 0 && arg[n] == '=') {
                opt = &o;
                value = argv[i] + n + 1;
            }
            if (opt)
                break;
        }
        if (opt) {
            if (opt->text)
                *opt->text = value;
            else if (!util::parseCount(opt->name, value, opt->lo,
                                       opt->hi, *opt->count))
                return 1;
        } else if (arg == "--list") {
            for (const auto &f : figures())
                std::printf("%-10s %s\n", f.name, f.title);
            return 0;
        } else if (arg == "--list-schemes") {
            for (const sim::SchemeInfo &info : sim::allSchemes())
                std::printf("%-15s %s\n", info.cliName, info.name);
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs N] [--out DIR] "
                "[--checkpoint-dir DIR] "
                "[--telemetry-epoch CYCLES] [--trace-out FILE] "
                "[--list] [--list-schemes] [figure...|all]\n"
                "  --checkpoint-dir DIR  journal finished tasks and "
                "cache warm-up snapshots\n"
                "                        under DIR; a killed run "
                "resumes where it stopped\n",
                argv[0]);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 1;
        } else {
            names.push_back(arg);
        }
    }
    // The budgets must be parsed before any task runs: a malformed
    // value would otherwise silently become a zero or a wrapped budget.
    if (const char *s = std::getenv("MORC_BENCH_INSTR");
        s && !util::parseCount("MORC_BENCH_INSTR", s, 1, kMax, g_instr))
        return 1;
    if (const char *s = std::getenv("MORC_BENCH_WARMUP");
        s && !util::parseCount("MORC_BENCH_WARMUP", s, 0, kMax, g_warmup))
        return 1;

    if (names.empty() || (names.size() == 1 && names[0] == "all")) {
        names.clear();
        for (const auto &f : figures())
            names.push_back(f.name);
    }
    std::vector<const Figure *> selected;
    for (const auto &n : names) {
        const std::size_t found = selected.size();
        for (const auto &f : figures()) {
            if (n == f.name)
                selected.push_back(&f);
        }
        if (selected.size() == found) {
            std::fprintf(stderr, "unknown figure '%s' (--list)\n",
                         n.c_str());
            return 1;
        }
    }

    // Create DIR + @p sub for a directory option that is set.
    const auto makeDir = [](const std::string &dir, const char *sub) {
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::create_directories(dir + sub, ec);
        if (ec)
            std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                         ec.message().c_str());
        return !ec;
    };
    if (!makeDir(outDir, "") || !makeDir(checkpointDir, "/warm"))
        return 1;
    if (!checkpointDir.empty())
        g_warmDir = checkpointDir + "/warm";
    g_traceEvents = !traceOut.empty();

    const auto write = [](const std::string &path, const std::string &text) {
        const bool ok = snap::atomicWriteFile(path, text.data(), text.size());
        if (!ok)
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return ok;
    };
    const auto secondsSince = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t)
            .count();
    };
    // Traces from every selected figure, in deterministic task order.
    std::vector<std::pair<std::string, telemetry::TraceBuffer>> traces;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Figure *fig : selected) {
        const auto f0 = std::chrono::steady_clock::now();
        std::unique_ptr<sweep::Journal> journal;
        if (!checkpointDir.empty()) {
            // A record is a function of its task key and of these
            // run-wide settings, so each combination has its own file.
            char inputs[96];
            std::snprintf(inputs, sizeof inputs,
                          "-i%llu-w%llu-e%llu-t%d.journal",
                          static_cast<unsigned long long>(g_instr),
                          static_cast<unsigned long long>(g_warmup),
                          static_cast<unsigned long long>(g_telemetryEpoch),
                          g_traceEvents ? 1 : 0);
            journal = std::make_unique<sweep::Journal>(
                checkpointDir + "/" + fig->name + inputs);
            journal->load();
        }
        stats::Report rep;
        try {
            rep = runFigure(*fig, static_cast<unsigned>(jobs),
                            journal.get());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "[%s] FAILED: %s\n", fig->name,
                         e.what());
            return 1;
        }
        banner(*fig);
        fig->present(Grid(fig->axes, rep));
        if (g_traceEvents) {
            for (const auto &run : rep.runs)
                if (!run.trace.empty())
                    traces.emplace_back(run.key, run.trace);
        }
        if (!outDir.empty() &&
            !write(outDir + "/" + fig->name + ".json", rep.toJson()))
            return 1;
        std::fprintf(stderr, "[%s] %zu tasks in %.1fs\n", fig->name,
                     rep.runs.size(), secondsSince(f0));
        std::printf("\n");
        std::fflush(stdout);
    }
    if (!traceOut.empty()) {
        if (!write(traceOut, telemetry::chromeTraceJson(traces)))
            return 1;
        std::fprintf(stderr, "trace: %zu traced runs -> %s\n",
                     traces.size(), traceOut.c_str());
    }
    if (selected.size() > 1) {
        std::fprintf(stderr, "total: %zu figures in %.1fs\n",
                     selected.size(), secondsSince(t0));
    }
    return 0;
}

} // namespace
} // namespace bench
} // namespace morc

int
main(int argc, char **argv)
{
    return morc::bench::sweepMain(argc, argv);
}
