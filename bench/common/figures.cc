#include "common/figures.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
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
#include "stats/summary.hh"
#include "sweep/journal.hh"
#include "telemetry/tracer.hh"
#include "trace/workload.hh"
#include "util/rng.hh"
#include "util/sync.hh"

namespace morc {
namespace bench {

namespace {

using stats::Report;
using stats::RunRecord;
using sweep::Task;

// ------------------------------------------------------------------
// Shared task plumbing
// ------------------------------------------------------------------

/** Per-core measured instructions: env MORC_BENCH_INSTR, else a
 *  short-but-stable default. */
std::uint64_t
instrBudget()
{
    if (const char *s = std::getenv("MORC_BENCH_INSTR"))
        return std::strtoull(s, nullptr, 10);
    return 800'000;
}

/** Per-core warm-up instructions: env MORC_BENCH_WARMUP, else twice
 *  the default measured budget. */
std::uint64_t
warmupBudget()
{
    if (const char *s = std::getenv("MORC_BENCH_WARMUP"))
        return std::strtoull(s, nullptr, 10);
    return 1'600'000;
}

/** Telemetry requested via --telemetry-epoch / --trace-out. Set once by
 *  sweepMain before any task runs, then only read by (parallel) tasks,
 *  so plain globals are race-free. */
std::uint64_t g_telemetryEpoch = 0;
bool g_traceEvents = false;

/** Warm-snapshot directory (--checkpoint-dir DIR => DIR/warm), empty =
 *  warm checkpointing off. Set once before any task runs. */
std::string g_warmDir;

/**
 * Canonical description of everything that determines a warmed-up
 * system: the full effective config, the programs, and the warm-up
 * budget. Hashed (stableSeed) into the warm-snapshot filename, so
 * identical warm-up phases — across figures or across invocations —
 * simulate once and restore thereafter. A hash collision is harmless:
 * System::restore() validates the complete config fingerprint inside
 * the snapshot and the caller falls back to a cold warm-up.
 */
std::string
warmFingerprint(const sim::SystemConfig &cfg,
                const std::vector<trace::BenchmarkSpec> &programs,
                std::uint64_t warmup)
{
    std::string f;
    const auto add = [&f](const std::string &part) {
        f += part;
        f += '\x1f';
    };
    const auto u = [&](std::uint64_t v) { add(std::to_string(v)); };
    const auto d = [&](double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(buf);
    };
    u(static_cast<std::uint64_t>(cfg.scheme));
    u(cfg.numCores);
    u(cfg.llcBytesPerCore);
    d(cfg.bandwidthPerCore);
    d(cfg.clockHz);
    u(cfg.l1Bytes);
    u(cfg.l1Ways);
    u(cfg.l1Latency);
    u(cfg.llcLatency);
    u(cfg.dramCycles);
    u(cfg.threadsPerCore);
    u(cfg.interleaveQuantum);
    u(cfg.inclusiveWriteFills ? 1 : 0);
    u(cfg.ratioSampleInterval);
    u(cfg.checkFunctional ? 1 : 0);
    u(cfg.useMorcOverride ? 1 : 0);
    if (cfg.useMorcOverride) {
        u(cfg.morc.capacityBytes);
        u(cfg.morc.logBytes);
        u(cfg.morc.activeLogs);
        u(cfg.morc.lmtFactor);
        u(cfg.morc.lmtWays);
        u(cfg.morc.mergedTags ? 1 : 0);
        d(cfg.morc.tagStoreFactor);
        u(cfg.morc.tagBases);
        d(cfg.morc.fudge);
        u(cfg.morc.compressionEnabled ? 1 : 0);
        u(cfg.morc.unlimitedMeta ? 1 : 0);
        u(cfg.morc.decompressBytesPerCycle);
        u(cfg.morc.tagsPerCycle);
        u(cfg.morc.parallelTagData ? 1 : 0);
    }
    u(cfg.useMesh ? 1 : 0);
    if (cfg.useMesh) {
        u(cfg.meshCfg.width);
        u(cfg.meshCfg.height);
        u(cfg.meshCfg.memControllers);
    }
    u(cfg.telemetryEpoch);
    u(cfg.telemetryMaxSamples);
    u(cfg.traceEvents ? 1 : 0);
    u(cfg.traceCapacity);
    u(cfg.writebackBurstThreshold);
    u(cfg.nocStallThreshold);
    for (const stats::Histogram *h :
         {cfg.decompressedBytesHistogram, cfg.hitLatencyHistogram}) {
        if (!h) {
            add("-");
            continue;
        }
        for (std::uint64_t b : h->bounds())
            u(b);
        add(";");
    }
    for (const auto &p : programs)
        add(p.name);
    u(warmup);
    return f;
}

/** One mutex per warm fingerprint, so concurrent tasks that share a
 *  warm-up phase simulate it exactly once; everyone else restores. The
 *  map only grows and node references are stable, so the returned
 *  reference outlives the master lock. */
sync::Mutex &
warmMutex(const std::string &fingerprint)
{
    static sync::Mutex master;
    static std::map<std::string, sync::Mutex> locks;
    sync::LockGuard lock(master);
    return locks[fingerprint];
}

/**
 * Warm-up via the snapshot cache: restore DIR/warm/<hash>.morcsnp when
 * present, else simulate the warm-up once and save it. Any rejected or
 * unwritable snapshot degrades to a cold warm-up — never an abort.
 */
void
warmViaCheckpoint(std::unique_ptr<sim::System> &sys,
                  const sim::SystemConfig &cfg,
                  const std::vector<trace::BenchmarkSpec> &programs,
                  std::uint64_t warmup)
{
    const std::string fp = warmFingerprint(cfg, programs, warmup);
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.morcsnp",
                  static_cast<unsigned long long>(sweep::stableSeed(fp)));
    const std::string path = g_warmDir + "/" + name;

    sync::LockGuard lock(warmMutex(fp));
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

/** System::run() routed through the warm-snapshot cache when enabled.
 *  @p cfg and @p programs must be exactly what @p sys was built from. */
sim::RunResult
runSystem(std::unique_ptr<sim::System> &sys,
          const sim::SystemConfig &cfg,
          const std::vector<trace::BenchmarkSpec> &programs,
          std::uint64_t instr, std::uint64_t warmup)
{
    if (g_warmDir.empty() || warmup == 0)
        return sys->run(instr, warmup);
    warmViaCheckpoint(sys, cfg, programs, warmup);
    return sys->measure(instr);
}

/** Join key parts with '/'. */
std::string
k(std::initializer_list<std::string> parts)
{
    std::string out;
    for (const auto &p : parts) {
        if (!out.empty())
            out += '/';
        out += p;
    }
    return out;
}

/** Run one System and flatten the RunResult into the standard metrics. */
RunRecord
simRecord(const sim::SystemConfig &cfg,
          const std::vector<trace::BenchmarkSpec> &programs,
          std::uint64_t instr, std::uint64_t warmup)
{
    sim::SystemConfig effective = cfg;
    effective.telemetryEpoch = g_telemetryEpoch;
    effective.traceEvents = g_traceEvents;
    auto sys = std::make_unique<sim::System>(effective, programs);
    const sim::RunResult r =
        runSystem(sys, effective, programs, instr, warmup);
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
        rec.histograms.emplace_back("noc_hops", r.nocHopHist);
        rec.histograms.emplace_back("noc_queue_cycles", r.nocQueueHist);
    }
    rec.series = r.series;
    rec.trace = r.trace;
    return rec;
}

/** Single-program task with the Figure 6 defaults. */
Task
singleTask(std::string key, sim::Scheme scheme, trace::BenchmarkSpec spec,
           double bw_per_core = 100e6,
           std::uint64_t llc_bytes = 128 * 1024,
           core::MorcConfig *morc = nullptr, unsigned warmup_scale = 1)
{
    core::MorcConfig morcCopy;
    const bool haveMorc = morc != nullptr;
    if (haveMorc)
        morcCopy = *morc;
    return Task{std::move(key),
                [=](std::uint64_t) -> RunRecord {
                    sim::SystemConfig cfg;
                    cfg.scheme = scheme;
                    cfg.bandwidthPerCore = bw_per_core;
                    cfg.llcBytesPerCore = llc_bytes;
                    cfg.ratioSampleInterval = std::max<std::uint64_t>(
                        instrBudget() / 8, 50'000);
                    if (haveMorc) {
                        cfg.morc = morcCopy;
                        cfg.useMorcOverride = true;
                    }
                    RunRecord rec =
                        simRecord(cfg, {spec}, instrBudget(),
                                  warmupBudget() * warmup_scale);
                    rec.label("workload", spec.name);
                    rec.label("scheme", schemeName(scheme));
                    return rec;
                }};
}

const sim::Scheme kCompared[] = {
    sim::Scheme::Uncompressed, sim::Scheme::Adaptive,
    sim::Scheme::Decoupled, sim::Scheme::Sc2, sim::Scheme::Morc};

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

std::vector<Task>
fig2Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006()) {
        for (sim::Scheme s :
             {sim::Scheme::Uncompressed, sim::Scheme::OracleIntra,
              sim::Scheme::OracleInter}) {
            tasks.push_back(
                singleTask(k({"fig2", spec.name, schemeName(s)}), s,
                           spec));
        }
    }
    return tasks;
}

void
fig2Present(const Report &rep)
{
    std::vector<double> intra_r, inter_r, intra_bw, inter_bw;
    std::printf("%-10s %12s %12s %10s %10s\n", "bench", "intra-ratio",
                "inter-ratio", "intra-BW%", "inter-BW%");
    for (const auto &spec : trace::spec2006()) {
        const double bw0 = rep.metric(
            k({"fig2", spec.name, "Uncompressed"}), "gb_per_binstr");
        const auto *intra =
            rep.find(k({"fig2", spec.name, "Oracle-Intra"}));
        const auto *inter =
            rep.find(k({"fig2", spec.name, "Oracle-Inter"}));
        const double bw_intra =
            100.0 * (1.0 - intra->get("gb_per_binstr") / bw0);
        const double bw_inter =
            100.0 * (1.0 - inter->get("gb_per_binstr") / bw0);
        intra_r.push_back(intra->get("ratio"));
        inter_r.push_back(inter->get("ratio"));
        intra_bw.push_back(bw_intra);
        inter_bw.push_back(bw_inter);
        std::printf("%-10s %12.2f %12.2f %9.1f%% %9.1f%%\n",
                    spec.name.c_str(), intra->get("ratio"),
                    inter->get("ratio"), bw_intra, bw_inter);
    }
    printMeans("intra ratio", intra_r);
    printMeans("inter ratio", inter_r);
    printMeans("intra BW%", intra_bw);
    printMeans("inter BW%", inter_bw);
}

// ------------------------------------------------------------------
// Figure 6: single-program evaluation over the 54 workloads
// ------------------------------------------------------------------

std::vector<Task>
fig6Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::figure6Workloads())
        for (sim::Scheme s : kCompared)
            tasks.push_back(singleTask(
                k({"fig6", spec.name, schemeName(s)}), s, spec));
    return tasks;
}

void
fig6Present(const Report &rep)
{
    constexpr int kN = 5;
    std::vector<double> ratio[kN], gb[kN], ipc_imp[kN], thr_imp[kN];
    std::printf("%-12s | ratio: %-26s | GB/Binstr: %-32s | IPC+%% (A/D/S/M) "
                "| THR+%%\n",
                "workload", "A     D     S     M", "U     A     D     S "
                "    M");
    for (const auto &spec : trace::figure6Workloads()) {
        const RunRecord *r[kN];
        for (int i = 0; i < kN; i++)
            r[i] = rep.find(
                k({"fig6", spec.name, schemeName(kCompared[i])}));
        const double base_ipc = r[0]->get("ipc");
        const double base_thr = r[0]->get("throughput");
        std::printf("%-12s |", spec.name.c_str());
        for (int i = 1; i < kN; i++)
            std::printf(" %5.2f", r[i]->get("ratio"));
        std::printf(" |");
        for (int i = 0; i < kN; i++)
            std::printf(" %5.2f", r[i]->get("gb_per_binstr"));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.0f",
                        100.0 * (r[i]->get("ipc") / base_ipc - 1.0));
        std::printf(" |");
        for (int i = 1; i < kN; i++)
            std::printf(" %+5.0f",
                        100.0 *
                            (r[i]->get("throughput") / base_thr - 1.0));
        std::printf("\n");
        for (int i = 0; i < kN; i++) {
            ratio[i].push_back(r[i]->get("ratio"));
            gb[i].push_back(r[i]->get("gb_per_binstr"));
            ipc_imp[i].push_back(r[i]->get("ipc") / base_ipc);
            thr_imp[i].push_back(r[i]->get("throughput") / base_thr);
        }
    }
    std::printf("\nSummary (54 workloads):\n");
    for (int i = 0; i < kN; i++) {
        double gb_sum = 0, gb_base = 0;
        for (std::size_t j = 0; j < gb[i].size(); j++) {
            gb_sum += gb[i][j];
            gb_base += gb[0][j];
        }
        std::printf("%-14s ratio AMean %5.2f GMean %5.2f | BW reduction "
                    "%+6.1f%% | IPC %+6.1f%% | throughput %+6.1f%%\n",
                    schemeName(kCompared[i]), stats::amean(ratio[i]),
                    stats::gmean(ratio[i]),
                    100.0 * (1.0 - gb_sum / gb_base),
                    100.0 * (stats::gmean(ipc_imp[i]) - 1.0),
                    100.0 * (stats::gmean(thr_imp[i]) - 1.0));
    }
}

// ------------------------------------------------------------------
// Figure 7: LBE symbol usage distribution
// ------------------------------------------------------------------

std::vector<Task>
fig7Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006()) {
        tasks.push_back(Task{
            k({"fig7", spec.name}), [spec](std::uint64_t) -> RunRecord {
                sim::SystemConfig cfg;
                cfg.scheme = sim::Scheme::Morc;
                cfg.ratioSampleInterval = instrBudget();
                const std::vector<trace::BenchmarkSpec> progs{spec};
                auto sys = std::make_unique<sim::System>(cfg, progs);
                runSystem(sys, cfg, progs, instrBudget(),
                          warmupBudget());
                auto *lc = dynamic_cast<core::LogCache *>(&sys->llc());
                const comp::LbeStats st = lc->lbeStats();

                constexpr int n =
                    static_cast<int>(comp::LbeSymbol::NumSymbols);
                double total = 0, zero = 0, weighted[n];
                for (int s = 0; s < n; s++) {
                    const auto sym = static_cast<comp::LbeSymbol>(s);
                    weighted[s] = static_cast<double>(st.count[s]) *
                                  comp::LbeStats::dataBytes(sym);
                    total += weighted[s];
                    zero += static_cast<double>(st.zeroCount[s]) *
                            comp::LbeStats::dataBytes(sym);
                }
                RunRecord rec;
                rec.label("workload", spec.name);
                for (int s = 0; s < n; s++) {
                    const auto sym = static_cast<comp::LbeSymbol>(s);
                    rec.metric(std::string("sym_") +
                                   comp::LbeStats::name(sym),
                               total == 0 ? 0.0 : weighted[s] / total);
                }
                rec.metric("zero_frac",
                           total == 0 ? 0.0 : zero / total);
                return rec;
            }});
    }
    return tasks;
}

void
fig7Present(const Report &rep)
{
    constexpr int n = static_cast<int>(comp::LbeSymbol::NumSymbols);
    std::printf("%-10s", "bench");
    for (int s = 0; s < n; s++)
        std::printf(" %6s",
                    comp::LbeStats::name(static_cast<comp::LbeSymbol>(s)));
    std::printf("   zero%%\n");
    for (const auto &spec : trace::spec2006()) {
        const auto *r = rep.find(k({"fig7", spec.name}));
        std::printf("%-10s", spec.name.c_str());
        for (int s = 0; s < n; s++) {
            std::printf(" %5.1f%%",
                        100.0 * r->get(std::string("sym_") +
                                       comp::LbeStats::name(
                                           static_cast<comp::LbeSymbol>(
                                               s))));
        }
        std::printf("  %5.1f%%\n", 100.0 * r->get("zero_frac"));
    }
}

// ------------------------------------------------------------------
// Figure 8: multi-program mixes
// ------------------------------------------------------------------

std::vector<Task>
fig8Tasks()
{
    std::vector<Task> tasks;
    for (const auto &mix : trace::table6Workloads()) {
        for (sim::Scheme s : kCompared) {
            tasks.push_back(Task{
                k({"fig8", mix.name, schemeName(s)}),
                [mix, s](std::uint64_t) -> RunRecord {
                    // Multi-program runs cost 16x per instruction
                    // budget; scale down as the serial bench did.
                    const std::uint64_t instr = instrBudget() / 4;
                    const std::uint64_t warmup = warmupBudget() / 4;
                    sim::SystemConfig cfg;
                    cfg.scheme = s;
                    cfg.numCores = 16;
                    cfg.bandwidthPerCore = 100e6; // 1600 MB/s total
                    cfg.interleaveQuantum = 1;
                    cfg.ratioSampleInterval =
                        std::max<std::uint64_t>(instr, 100'000);
                    std::vector<trace::BenchmarkSpec> programs;
                    for (const auto &name : mix.programs)
                        programs.push_back(
                            trace::resolveWorkload(name));
                    RunRecord rec =
                        simRecord(cfg, programs, instr, warmup);
                    rec.label("mix", mix.name);
                    rec.label("scheme", schemeName(s));
                    return rec;
                }});
        }
    }
    return tasks;
}

void
fig8Present(const Report &rep)
{
    constexpr int kN = 5;
    std::printf("%-4s | ratio: %-23s | BW-red%%: %-23s | IPC+%%: %-23s | "
                "completion+%%\n",
                "mix", "A     D     S     M", "A     D     S     M",
                "A     D     S     M");
    std::vector<double> ratios[kN];
    for (const auto &mix : trace::table6Workloads()) {
        const RunRecord *r[kN];
        for (int i = 0; i < kN; i++)
            r[i] = rep.find(
                k({"fig8", mix.name, schemeName(kCompared[i])}));
        std::printf("%-4s |", mix.name.c_str());
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
        printMeans(schemeName(kCompared[i]), ratios[i]);
}

// ------------------------------------------------------------------
// Figure 9: memory-subsystem energy
// ------------------------------------------------------------------

const sim::Scheme kEnergySchemes[] = {
    sim::Scheme::Uncompressed, sim::Scheme::Uncompressed8x,
    sim::Scheme::Adaptive, sim::Scheme::Decoupled, sim::Scheme::Sc2,
    sim::Scheme::Morc};

std::vector<Task>
fig9Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006())
        for (sim::Scheme s : kEnergySchemes)
            tasks.push_back(singleTask(
                k({"fig9", spec.name, schemeName(s)}), s, spec));
    return tasks;
}

void
fig9Present(const Report &rep)
{
    constexpr int kN = 6;
    std::printf("%-10s | energy (mJ): %-41s | MORC breakdown (norm. to "
                "baseline total)\n",
                "bench", "Unc   Unc8x Adapt Decpl SC2   MORC");
    std::vector<double> norm[kN];
    for (const auto &spec : trace::spec2006()) {
        const RunRecord *r[kN];
        for (int i = 0; i < kN; i++)
            r[i] = rep.find(
                k({"fig9", spec.name, schemeName(kEnergySchemes[i])}));
        const double base = r[0]->get("energy_total");
        std::printf("%-10s |", spec.name.c_str());
        for (int i = 0; i < kN; i++) {
            std::printf(" %5.2f", 1e3 * r[i]->get("energy_total"));
            norm[i].push_back(r[i]->get("energy_total") / base);
        }
        const RunRecord *m = r[5];
        std::printf(" | static %.2f dram %.2f sram %.2f comp %.3f "
                    "decomp %.3f\n",
                    m->get("energy_static") / base,
                    m->get("energy_dram") / base,
                    m->get("energy_sram") / base,
                    m->get("energy_comp") / base,
                    m->get("energy_decomp") / base);
    }
    std::printf("\nNormalized energy vs uncompressed (GMean):\n");
    for (int i = 0; i < kN; i++)
        std::printf("%-14s %+6.1f%%\n", schemeName(kEnergySchemes[i]),
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

std::vector<Task>
fig10Tasks()
{
    std::vector<Task> tasks;
    for (double bw : kBandwidths)
        for (const auto &spec : trace::spec2006())
            for (sim::Scheme s : kCompared)
                tasks.push_back(singleTask(
                    k({"fig10", bwLabel(bw), spec.name, schemeName(s)}),
                    s, spec, bw));
    return tasks;
}

void
fig10Present(const Report &rep)
{
    constexpr int kN = 5;
    std::printf("%-10s | normalized IPC: %-23s | normalized throughput: "
                "%s\n",
                "BW/thread", "A     D     S     M", "A     D     S     M");
    for (double bw : kBandwidths) {
        std::vector<double> ipc[kN], thr[kN];
        for (const auto &spec : trace::spec2006()) {
            const RunRecord *r[kN];
            for (int i = 0; i < kN; i++)
                r[i] = rep.find(k({"fig10", bwLabel(bw), spec.name,
                                   schemeName(kCompared[i])}));
            for (int i = 0; i < kN; i++) {
                ipc[i].push_back(r[i]->get("ipc") / r[0]->get("ipc"));
                thr[i].push_back(r[i]->get("throughput") /
                                 r[0]->get("throughput"));
            }
        }
        std::printf("%-10s |", bwLabel(bw).c_str());
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

std::vector<Task>
fig11Tasks()
{
    std::vector<Task> tasks;
    for (std::uint64_t size : kLlcSizes) {
        // Caches much larger than 128KB need proportionally longer
        // warm-up to fill; bounded to keep the default sweep affordable.
        const unsigned scale = static_cast<unsigned>(
            std::min<std::uint64_t>(
                std::max<std::uint64_t>(size / (128 * 1024), 1), 2));
        for (const auto &spec : trace::spec2006()) {
            for (sim::Scheme s :
                 {sim::Scheme::Uncompressed, sim::Scheme::Morc}) {
                tasks.push_back(singleTask(
                    k({"fig11", std::to_string(size >> 10) + "KB",
                       spec.name, schemeName(s)}),
                    s, spec, 100e6, size, nullptr, scale));
            }
        }
    }
    return tasks;
}

void
fig11Present(const Report &rep)
{
    std::printf("%-10s %14s %16s %22s\n", "LLC size", "MORC ratio",
                "norm. bandwidth", "norm. throughput");
    for (std::uint64_t size : kLlcSizes) {
        std::vector<double> ratio, thr;
        double gb_base = 0, gb_morc = 0;
        const std::string sz = std::to_string(size >> 10) + "KB";
        for (const auto &spec : trace::spec2006()) {
            const auto *base =
                rep.find(k({"fig11", sz, spec.name, "Uncompressed"}));
            const auto *m = rep.find(k({"fig11", sz, spec.name, "MORC"}));
            ratio.push_back(m->get("ratio"));
            // Aggregate traffic, not a mean of per-benchmark ratios:
            // workloads that fit in-cache have near-zero baselines and
            // would dominate a ratio mean with noise.
            gb_base += base->get("gb_per_binstr");
            gb_morc += m->get("gb_per_binstr");
            thr.push_back(m->get("throughput") /
                          base->get("throughput"));
        }
        std::printf("%7lluKB %14.2f %16.2f %22.2f\n",
                    static_cast<unsigned long long>(size >> 10),
                    stats::amean(ratio), gb_morc / gb_base,
                    stats::gmean(thr));
    }
}

// ------------------------------------------------------------------
// Figure 12: write-back-induced invalid lines
// ------------------------------------------------------------------

std::vector<Task>
fig12Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006()) {
        for (bool inclusive : {true, false}) {
            tasks.push_back(Task{
                k({"fig12", spec.name,
                   inclusive ? "inclusive" : "non-inclusive"}),
                [spec, inclusive](std::uint64_t) -> RunRecord {
                    sim::SystemConfig cfg;
                    cfg.scheme = sim::Scheme::Morc;
                    cfg.useMorcOverride = true;
                    cfg.morc.compressionEnabled = false;
                    cfg.inclusiveWriteFills = inclusive;
                    cfg.ratioSampleInterval = instrBudget();
                    RunRecord rec = simRecord(
                        cfg, {spec}, instrBudget(), warmupBudget());
                    rec.label("workload", spec.name);
                    rec.label("fill_policy", inclusive
                                                 ? "inclusive"
                                                 : "non-inclusive");
                    return rec;
                }});
        }
    }
    return tasks;
}

void
fig12Present(const Report &rep)
{
    std::vector<double> inc, non;
    std::printf("%-10s %12s %14s\n", "bench", "inclusive%",
                "non-inclusive%");
    for (const auto &spec : trace::spec2006()) {
        const double i =
            100.0 * rep.metric(k({"fig12", spec.name, "inclusive"}),
                               "invalid_frac");
        const double n =
            100.0 * rep.metric(k({"fig12", spec.name, "non-inclusive"}),
                               "invalid_frac");
        inc.push_back(i);
        non.push_back(n);
        std::printf("%-10s %11.1f%% %13.1f%%\n", spec.name.c_str(), i, n);
    }
    std::printf("%-10s %11.1f%% %13.1f%%\n", "AMean", stats::amean(inc),
                stats::amean(non));
}

// ------------------------------------------------------------------
// Figure 13: log size / active-log count sweeps
// ------------------------------------------------------------------

const unsigned kLogSizes[] = {64, 256, 512, 1024, 2048, 4096};
const unsigned kLogCounts[] = {1, 4, 8, 16, 32, 64};
// A representative subset keeps the sweep affordable.
const char *kFig13Subset[] = {"astar",  "gcc",    "mcf",    "omnetpp",
                              "soplex", "zeusmp", "gamess", "cactusADM"};

Task
fig13Task(std::string key, const trace::BenchmarkSpec &spec,
          unsigned log_bytes, unsigned active_logs)
{
    core::MorcConfig morc;
    morc.logBytes = log_bytes;
    morc.activeLogs = active_logs;
    morc.unlimitedMeta = true;
    return singleTask(std::move(key), sim::Scheme::Morc, spec, 100e6,
                      128 * 1024, &morc);
}

std::vector<Task>
fig13Tasks()
{
    std::vector<Task> tasks;
    for (const char *name : kFig13Subset) {
        const auto spec = trace::resolveWorkload(name);
        for (unsigned s : kLogSizes)
            tasks.push_back(fig13Task(
                k({"fig13", name, "logbytes" + std::to_string(s)}),
                spec, s, 8));
        for (unsigned c : kLogCounts)
            tasks.push_back(fig13Task(
                k({"fig13", name, "logs" + std::to_string(c)}), spec,
                512, c));
    }
    return tasks;
}

void
fig13Present(const Report &rep)
{
    std::printf("(a) log size sweep, 8 active logs\n%-10s", "bench");
    for (unsigned s : kLogSizes)
        std::printf(" %6uB", s);
    std::printf("\n");
    for (const char *name : kFig13Subset) {
        std::printf("%-10s", name);
        for (unsigned s : kLogSizes)
            std::printf(" %7.2f",
                        rep.metric(k({"fig13", name,
                                      "logbytes" + std::to_string(s)}),
                                   "ratio"));
        std::printf("\n");
    }
    std::printf("\n(b) active-log sweep, 512B logs\n%-10s", "bench");
    for (unsigned c : kLogCounts)
        std::printf(" %6u", c);
    std::printf("\n");
    for (const char *name : kFig13Subset) {
        std::printf("%-10s", name);
        for (unsigned c : kLogCounts)
            std::printf(" %6.2f",
                        rep.metric(k({"fig13", name,
                                      "logs" + std::to_string(c)}),
                                   "ratio"));
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

std::vector<Task>
fig14Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006()) {
        tasks.push_back(Task{
            k({"fig14", spec.name}),
            [spec](std::uint64_t) -> RunRecord {
                stats::Histogram hist(kFig14Bounds);
                stats::Histogram latHist(kFig14LatencyBounds);
                sim::SystemConfig cfg;
                cfg.scheme = sim::Scheme::Morc;
                cfg.decompressedBytesHistogram = &hist;
                cfg.hitLatencyHistogram = &latHist;
                cfg.ratioSampleInterval = instrBudget();
                const std::vector<trace::BenchmarkSpec> progs{spec};
                auto sys = std::make_unique<sim::System>(cfg, progs);
                runSystem(sys, cfg, progs, instrBudget(),
                          warmupBudget());
                RunRecord rec;
                rec.label("workload", spec.name);
                rec.histograms.emplace_back("log_position_bytes", hist);
                rec.histograms.emplace_back("hit_latency_cycles",
                                            latHist);
                return rec;
            }});
    }
    return tasks;
}

void
fig14Present(const Report &rep)
{
    {
        stats::Histogram proto(kFig14Bounds);
        std::printf("%-10s", "bench");
        for (std::size_t i = 0; i < proto.numBuckets(); i++)
            std::printf(" %8s", proto.label(i).c_str());
        std::printf("\n");
    }
    for (const auto &spec : trace::spec2006()) {
        const auto *r = rep.find(k({"fig14", spec.name}));
        const stats::Histogram &hist = r->histograms.front().second;
        std::printf("%-10s", spec.name.c_str());
        for (std::size_t i = 0; i < hist.numBuckets(); i++)
            std::printf("   %5.1f%%", 100.0 * hist.fraction(i));
        std::printf("\n");
    }
    std::printf("\nhit latency (cycles):\n");
    {
        stats::Histogram proto(kFig14LatencyBounds);
        std::printf("%-10s", "bench");
        for (std::size_t i = 0; i < proto.numBuckets(); i++)
            std::printf(" %8s", proto.label(i).c_str());
        std::printf("\n");
    }
    for (const auto &spec : trace::spec2006()) {
        const auto *r = rep.find(k({"fig14", spec.name}));
        const stats::Histogram &hist = r->histograms.back().second;
        std::printf("%-10s", spec.name.c_str());
        for (std::size_t i = 0; i < hist.numBuckets(); i++)
            std::printf("   %5.1f%%", 100.0 * hist.fraction(i));
        std::printf("\n");
    }
}

// ------------------------------------------------------------------
// Figure 15: separate vs merged tag/data logs
// ------------------------------------------------------------------

std::vector<Task>
fig15Tasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006())
        for (sim::Scheme s :
             {sim::Scheme::Morc, sim::Scheme::MorcMerged})
            tasks.push_back(singleTask(
                k({"fig15", spec.name, schemeName(s)}), s, spec));
    return tasks;
}

void
fig15Present(const Report &rep)
{
    std::vector<double> base, merged;
    std::printf("%-10s %10s %12s\n", "bench", "MORC", "MORCMerged");
    for (const auto &spec : trace::spec2006()) {
        const double r0 =
            rep.metric(k({"fig15", spec.name, "MORC"}), "ratio");
        const double r1 =
            rep.metric(k({"fig15", spec.name, "MORCMerged"}), "ratio");
        base.push_back(r0);
        merged.push_back(r1);
        std::printf("%-10s %10.2f %12.2f\n", spec.name.c_str(), r0, r1);
    }
    printMeans("MORC", base);
    printMeans("MORCMerged", merged);
}

// ------------------------------------------------------------------
// Table 1: energy constants
// ------------------------------------------------------------------

std::vector<Task>
table1Tasks()
{
    return {Task{"table1/constants", [](std::uint64_t) -> RunRecord {
                     RunRecord rec;
                     for (const auto &row : energy::table1())
                         rec.metric(row.operation, row.joules);
                     return rec;
                 }}};
}

void
table1Present(const Report &rep)
{
    const auto *rec = rep.find("table1/constants");
    std::printf("%-40s %12s %10s\n", "Operation", "Energy", "Scale");
    const double base = rec->metrics.front().second;
    for (const auto &[op, joules] : rec->metrics) {
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

std::vector<Task>
table4Tasks()
{
    std::vector<Task> tasks;
    for (const auto &row : cache::table4Overheads()) {
        tasks.push_back(Task{
            k({"table4", row.scheme}), [row](std::uint64_t) -> RunRecord {
                RunRecord rec;
                rec.label("scheme", row.scheme);
                rec.metric("extra_tags_frac", row.extraTagsFrac);
                rec.metric("metadata_frac", row.metadataFrac);
                rec.metric("total_frac", row.totalFrac);
                rec.metric("comp_engine_mm2", row.compEngineMm2);
                rec.metric("dict_bytes",
                           static_cast<double>(row.dictBytes));
                return rec;
            }});
    }
    return tasks;
}

void
table4Present(const Report &rep)
{
    std::printf("(128KB cache, 40b tags, 16-way sets for prior work, "
                "512B logs, 8x LMT)\n\n");
    std::printf("%-12s %9s %9s %11s %9s %9s\n", "Scheme", "Tags",
                "Metadata", "Tags+Meta", "Engine", "Dict");
    for (const auto &row : cache::table4Overheads()) {
        const auto *r = rep.find(k({"table4", row.scheme}));
        const double engineMm2 = r->get("comp_engine_mm2");
        const unsigned dictBytes =
            static_cast<unsigned>(r->get("dict_bytes"));
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
                    row.scheme.c_str(), 100 * r->get("extra_tags_frac"),
                    100 * r->get("metadata_frac"),
                    100 * r->get("total_frac"), engine, dict);
    }
    std::printf("\nPaper row 'Tags+Meta': 18.74%% / 8.59%% / 33.58%% / "
                "25.00%% / 17.18%%\n");
}

// ------------------------------------------------------------------
// Ablation: stream/line codecs on identical fill streams
// ------------------------------------------------------------------

std::vector<Task>
ablationTasks()
{
    std::vector<Task> tasks;
    for (const auto &spec : trace::spec2006()) {
        tasks.push_back(Task{
            k({"ablation", spec.name}),
            [spec](std::uint64_t seed) -> RunRecord {
                trace::ValueModel vm(spec.data);
                Rng rng(seed);
                const std::uint64_t ws_lines =
                    spec.access.wsBytes / kLineSize;
                comp::LbeEncoder lbe;
                comp::LzssEncoder lz;
                comp::CpackEncoder cpack_stream(512); // same dict budget
                std::uint64_t b_lbe = 0, b_lz = 0, b_cp = 0, b_fpc = 0,
                              b_bdi = 0;
                std::uint64_t log_lbe = 0, log_lz = 0, log_cp = 0;
                int n = 0;
                for (int burst = 0; burst < 120; burst++) {
                    const std::uint64_t base =
                        rng.below(ws_lines) & ~15ull;
                    for (int i = 0; i < 16; i++) {
                        const CacheLine l = vm.line(base + i, 0);
                        const auto add = [&](std::uint64_t &total,
                                             std::uint64_t &log,
                                             std::uint32_t bits,
                                             auto &enc) {
                            total += bits;
                            log += bits;
                            if (log > 4096) { // 512B log flush
                                enc.reset();
                                log = 0;
                            }
                        };
                        add(b_lbe, log_lbe, lbe.append(l), lbe);
                        add(b_lz, log_lz, lz.append(l), lz);
                        add(b_cp, log_cp, cpack_stream.append(l),
                            cpack_stream);
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
            }});
    }
    for (unsigned bases : {1u, 2u}) {
        tasks.push_back(Task{
            k({"ablation", "tagcodec",
               std::to_string(bases) + "base"}),
            [bases](std::uint64_t seed) -> RunRecord {
                comp::TagCodec codec(bases);
                Rng rng(seed);
                std::uint64_t bits = 0;
                std::uint64_t chain_a = 1'000'000,
                              chain_b = 9'000'000;
                const int n = 20000;
                for (int i = 0; i < n; i++) {
                    if (i & 1)
                        bits += codec.append(chain_a +=
                                             1 + rng.below(3));
                    else
                        bits += codec.append(chain_b +=
                                             1 + rng.below(3));
                }
                RunRecord rec;
                rec.label("bases", std::to_string(bases));
                rec.metric("bits_per_tag",
                           static_cast<double>(bits) / n);
                return rec;
            }});
    }
    return tasks;
}

void
ablationPresent(const Report &rep)
{
    std::printf("%-10s %7s %7s %8s %7s %7s\n", "bench", "LBE", "LZSS",
                "C-Packs", "FPC", "BDI");
    std::vector<double> r_lbe, r_lz, r_cp, r_fpc, r_bdi;
    for (const auto &spec : trace::spec2006()) {
        const auto *r = rep.find(k({"ablation", spec.name}));
        std::printf("%-10s %7.2f %7.2f %8.2f %7.2f %7.2f\n",
                    spec.name.c_str(), r->get("lbe"), r->get("lzss"),
                    r->get("cpack"), r->get("fpc"), r->get("bdi"));
        r_lbe.push_back(r->get("lbe"));
        r_lz.push_back(r->get("lzss"));
        r_cp.push_back(r->get("cpack"));
        r_fpc.push_back(r->get("fpc"));
        r_bdi.push_back(r->get("bdi"));
    }
    printMeans("LBE", r_lbe);
    printMeans("LZSS", r_lz);
    printMeans("C-Pack", r_cp);
    printMeans("FPC", r_fpc);
    printMeans("BDI", r_bdi);

    std::printf("\nTag codec: interleaved fill + write-back chains\n");
    for (unsigned bases : {1u, 2u}) {
        std::printf("  %u base(s): %.1f bits/tag (vs %u raw)\n", bases,
                    rep.metric(k({"ablation", "tagcodec",
                                  std::to_string(bases) + "base"}),
                               "bits_per_tag"),
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

std::vector<Task>
meshTasks()
{
    std::vector<Task> tasks;
    for (unsigned dim : kMeshDims) {
        for (sim::Scheme s :
             {sim::Scheme::Uncompressed, sim::Scheme::Morc}) {
            const unsigned tiles = dim * dim;
            tasks.push_back(Task{
                k({"mesh", std::to_string(tiles) + "t", schemeName(s)}),
                [dim, s, tiles](std::uint64_t) -> RunRecord {
                    // Total off-chip bandwidth is held at 1600 MB/s
                    // regardless of tile count, so scaling stresses the
                    // shared memory system exactly as the paper's
                    // manycore argument requires.
                    const std::uint64_t instr = std::max<std::uint64_t>(
                        instrBudget() / 8, 10'000);
                    const std::uint64_t warmup =
                        std::max<std::uint64_t>(warmupBudget() / 8,
                                                10'000);
                    sim::SystemConfig cfg;
                    cfg.scheme = s;
                    cfg.useMesh = true;
                    cfg.meshCfg.width = dim;
                    cfg.meshCfg.height = dim;
                    cfg.meshCfg.memControllers = std::max(1u, dim / 2);
                    cfg.numCores = tiles;
                    cfg.bandwidthPerCore = 1600e6 / tiles;
                    cfg.llcBytesPerCore = 128 * 1024;
                    cfg.interleaveQuantum = 1;
                    cfg.ratioSampleInterval =
                        std::max<std::uint64_t>(instr, 100'000);
                    std::vector<trace::BenchmarkSpec> programs;
                    for (unsigned c = 0; c < tiles; c++)
                        programs.push_back(trace::resolveWorkload(
                            kMeshPrograms[c % 4]));
                    RunRecord rec =
                        simRecord(cfg, programs, instr, warmup);
                    rec.label("tiles", std::to_string(tiles));
                    rec.label("mesh", std::to_string(dim) + "x" +
                                          std::to_string(dim));
                    rec.label("scheme", schemeName(s));
                    // mean_throughput is already per-core (per-tile)
                    // normalized; sys_ipc_per_tile is the raw
                    // aggregate-rate analogue.
                    rec.metric("sys_ipc_per_tile",
                               rec.get("instructions") /
                                   std::max(1.0,
                                            rec.get("completion_cycles")) /
                                   tiles);
                    return rec;
                }});
        }
    }
    return tasks;
}

void
meshPresent(const Report &rep)
{
    std::printf("%-6s | thr/tile: %-20s | IPC/tile: %-20s | MORC: ratio "
                "hops  messages\n",
                "tiles", "Unc   MORC  MORC/Unc", "Unc   MORC  MORC/Unc");
    for (unsigned dim : kMeshDims) {
        const unsigned tiles = dim * dim;
        const std::string t = std::to_string(tiles) + "t";
        const auto *u = rep.find(k({"mesh", t, "Uncompressed"}));
        const auto *m = rep.find(k({"mesh", t, "MORC"}));
        std::printf("%-6u | %5.2f %5.2f %9.2f  | %5.2f %5.2f %9.2f  | "
                    "%10.2f %5.2f %9.0f\n",
                    tiles, u->get("mean_throughput"),
                    m->get("mean_throughput"),
                    m->get("mean_throughput") /
                        u->get("mean_throughput"),
                    u->get("sys_ipc_per_tile"),
                    m->get("sys_ipc_per_tile"),
                    m->get("sys_ipc_per_tile") /
                        u->get("sys_ipc_per_tile"),
                    m->get("ratio"), m->get("noc_mean_hops"),
                    m->get("noc_messages"));
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
    return std::max<std::uint64_t>(instrBudget() / 8, 2'000);
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
 *  RunRecord. */
RunRecord
kvRecord(const kv::ServiceConfig &cfg, std::uint64_t requests)
{
    kv::Service svc(cfg);
    svc.run(requests);

    RunRecord rec;
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

std::vector<Task>
kvServeTasks()
{
    std::vector<Task> tasks;
    for (sim::Scheme s : kKvSchemes) {
        tasks.push_back(Task{
            k({"kvserve", schemeName(s)}),
            [s](std::uint64_t) -> RunRecord {
                const kv::ServiceConfig cfg = kvBaseConfig(s);
                RunRecord rec = kvRecord(cfg, kvRequests());
                rec.label("scheme", schemeName(s));
                rec.label("tenants",
                          std::to_string(cfg.tenants.size()));
                std::uint64_t keys = 0;
                for (const auto &t : cfg.tenants)
                    keys += t.keys;
                rec.label("total_keys", std::to_string(keys));
                return rec;
            }});
    }
    return tasks;
}

void
kvServePresent(const Report &rep)
{
    std::printf("%-13s | hit%%   hit%%/MB  ratio | p50    p99    p99.9"
                "  | thr r/kcyc (soc/sea/feed/ana)\n",
                "scheme");
    for (sim::Scheme s : kKvSchemes) {
        const auto *r = rep.find(k({"kvserve", schemeName(s)}));
        const RunRecord::PercentileSet *lat = nullptr;
        for (const auto &g : r->percentiles) {
            if (g.first == "latency.all")
                lat = &g.second;
        }
        std::printf(
            "%-13s | %5.1f  %6.2f  %5.2f | %-6.0f %-6.0f %-6.0f | "
            "%5.2f (%.2f/%.2f/%.2f/%.2f)\n",
            schemeName(s), 100.0 * r->get("hit_rate"),
            100.0 * r->get("hit_rate_per_mb"), r->get("front_ratio"),
            lat ? (*lat)[0].second : 0.0, lat ? (*lat)[1].second : 0.0,
            lat ? (*lat)[2].second : 0.0, r->get("throughput_rpk"),
            r->get("thr_rpk_social"), r->get("thr_rpk_search"),
            r->get("thr_rpk_feed"), r->get("thr_rpk_analytics"));
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

const sim::Scheme kKvTierSchemes[] = {sim::Scheme::Uncompressed,
                                      sim::Scheme::Morc};

/** Requests per tiering task. The tiering figure only says anything
 *  once the 4 MB DRAM tier is full and eviction/promotion traffic is
 *  steady-state; under the --smoke budget the shared kvRequests() knob
 *  leaves it cold-miss-dominated, so tiering gets a higher floor
 *  (ROADMAP item 3 residual). */
std::uint64_t
kvTierRequests()
{
    return std::max<std::uint64_t>(kvRequests(), 60'000);
}

std::vector<Task>
kvTierTasks()
{
    std::vector<Task> tasks;
    for (sim::Scheme s : kKvTierSchemes) {
        for (const KvTierPoint &pt : kKvTierPoints) {
            tasks.push_back(Task{
                k({"kvtier", schemeName(s), pt.name}),
                [s, pt](std::uint64_t) -> RunRecord {
                    kv::ServiceConfig cfg = kvBaseConfig(s);
                    // Tight tiers so capacity effects dominate: the
                    // compressed DRAM tier must *earn* extra residency
                    // from the value classes.
                    cfg.tier.dramBytes = 4ull << 20;
                    cfg.tier.ssdBytes = 4ull << 20;
                    cfg.tier.dramCompressed = pt.dramCompressed;
                    cfg.tier.ssdCompressed = pt.ssdCompressed;
                    RunRecord rec = kvRecord(cfg, kvTierRequests());
                    rec.label("scheme", schemeName(s));
                    rec.label("tier_compression", pt.name);
                    return rec;
                }});
        }
    }
    return tasks;
}

void
kvTierPresent(const Report &rep)
{
    std::printf("%-13s %-10s | dram%%  ssd%%  origin%% | dram_lines "
                "ssd_lines | p99     p99.9\n",
                "scheme", "tiers");
    for (sim::Scheme s : kKvTierSchemes) {
        for (const KvTierPoint &pt : kKvTierPoints) {
            const auto *r =
                rep.find(k({"kvtier", schemeName(s), pt.name}));
            const RunRecord::PercentileSet *lat = nullptr;
            for (const auto &g : r->percentiles) {
                if (g.first == "latency.all")
                    lat = &g.second;
            }
            std::printf("%-13s %-10s | %5.1f %5.1f  %6.1f  | %10.0f "
                        "%9.0f | %-7.0f %-7.0f\n",
                        schemeName(s), pt.name,
                        100.0 * r->get("dram_hit_frac"),
                        100.0 * r->get("ssd_hit_frac"),
                        100.0 * r->get("origin_frac"),
                        r->get("dram_lines"), r->get("ssd_lines"),
                        lat ? (*lat)[1].second : 0.0,
                        lat ? (*lat)[2].second : 0.0);
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

std::vector<Task>
lifetimeTasks()
{
    std::vector<Task> tasks;
    for (const sim::SchemeInfo &info : sim::allSchemes()) {
        for (const char *w : kLifetimeWorkloads) {
            tasks.push_back(
                singleTask(k({"lifetime", w, info.name}), info.scheme,
                           trace::findBenchmark(w)));
        }
    }
    return tasks;
}

void
lifetimePresent(const Report &rep)
{
    struct Row
    {
        const char *name;
        double years, imbalance, flips, ratio, hitPerMb;
    };
    std::vector<Row> rows;
    for (const sim::SchemeInfo &info : sim::allSchemes()) {
        std::vector<double> years, imb, flips, ratio, hit;
        for (const char *w : kLifetimeWorkloads) {
            const RunRecord *r = rep.find(k({"lifetime", w, info.name}));
            // An idle run forecasts infinity (rendered 1e308); cap so
            // the geometric mean stays finite and the row sorts last
            // among the writers.
            years.push_back(
                std::min(lifetimeOf(*r, "years"), 1.0e12));
            imb.push_back(lifetimeOf(*r, "imbalance"));
            flips.push_back(lifetimeOf(*r, "flips_per_cell_per_sec"));
            ratio.push_back(r->get("ratio"));
            hit.push_back(r->get("llc_hit_rate"));
        }
        const double mb =
            (info.scheme == sim::Scheme::Uncompressed8x ? 8.0 : 1.0) *
            128.0 / 1024.0;
        rows.push_back({info.name, stats::gmean(years),
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

} // namespace

// ------------------------------------------------------------------
// Registry and drivers
// ------------------------------------------------------------------

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> kFigures = {
        {"table1", "Table 1: Energy of on-chip and off-chip operations "
                   "(64b of data)",
         "1x / 2x / 22.5x / 185x / 1250x / 4675x scale column",
         table1Tasks, table1Present},
        {"table4", "Table 4: Overheads of compression schemes, "
                   "normalized to cache capacity",
         "Tags+Meta 18.74% / 8.59% / 33.58% / 25.00% / 17.18%",
         table4Tasks, table4Present},
        {"fig2", "Figure 2: Oracle intra-line vs inter-line compression",
         "intra ~2x ratio / ~20% BW reduction; inter ~24x / ~80%",
         fig2Tasks, fig2Present},
        {"fig6", "Figure 6: single-program compression / bandwidth / "
                 "IPC / throughput",
         "MORC ~2.9x ratio (next best 1.9x); MORC -27% BW (next "
         "-10.8%); IPC +22%; throughput +37% (next +20%)",
         fig6Tasks, fig6Present},
        {"fig7", "Figure 7: LBE symbol usage distribution "
                 "(data-weighted)",
         "m256 significant for cactusADM/gamess/leslie3d/povray; gcc "
         "mostly zeros; h264ref u8/u16-heavy",
         fig7Tasks, fig7Present},
        {"fig8", "Figure 8: multi-program (16 threads, shared LLC, "
                 "1600MB/s)",
         "MORC ~4x ratio avg, up to 7x (next best 1.75x); BW -20%; "
         "IPC up to +60% (S5); completion M3 +35%",
         fig8Tasks, fig8Present},
        {"fig9", "Figure 9: memory subsystem energy",
         "MORC -17% vs uncompressed; beats the 1MB Uncompressed8x "
         "baseline; decompression energy visible but small vs DRAM",
         fig9Tasks, fig9Present},
        {"fig10", "Figure 10: sensitivity to per-thread bandwidth",
         "at 1600MB/s MORC costs ~7% IPC, no throughput loss; at "
         "12.5MB/s MORC +63% throughput",
         fig10Tasks, fig10Present},
        {"fig11", "Figure 11: MORC at other cache sizes",
         "BW savings 33-37% and throughput +35-46% from 64KB to 1MB; "
         "benefits fade by 4MB",
         fig11Tasks, fig11Present},
        {"fig12", "Figure 12: write-back-induced invalid lines "
                  "(compression disabled)",
         "non-inclusive significantly reduces invalid fraction vs "
         "inclusive",
         fig12Tasks, fig12Present},
        {"fig13", "Figure 13: log size and active-log count sweeps "
                  "(unlimited tags/LMT)",
         "512-byte logs with 8 active logs are near-optimal",
         fig13Tasks, fig13Present},
        {"fig14", "Figure 14: MORC access latency (log position) "
                  "distribution",
         "fairly even distribution across log positions", fig14Tasks,
         fig14Present},
        {"fig15", "Figure 15: separate vs merged tag/data logs",
         "MORCMerged within ~0.5x of MORC on most workloads",
         fig15Tasks, fig15Present},
        {"ablation", "Ablation: stream/line codecs on identical fill "
                     "streams",
         "LZ ~ LBE (Section 6); C-Pack capped by per-word pointers; "
         "intra-line codecs (FPC/BDI) trail inter-line ones",
         ablationTasks, ablationPresent},
        {"mesh", "Mesh scaling: tiled substrate (banked LLC over a 2D "
                 "mesh, fixed 1600MB/s total bandwidth), 1 to 64 tiles",
         "compression's benefit grows with core count as off-chip "
         "bandwidth per tile shrinks (Section 1 manycore argument)",
         meshTasks, meshPresent},
        {"kvserve", "KV serving: MORC vs baselines as the hot tier of "
                    "a 4-tenant memcached-style service (>=1M keys, "
                    "Zipf traffic, working-set drift)",
         "beyond the paper: hit-rate-per-byte and p50/p99/p99.9 tail "
         "latency under service-shaped traffic (ZipCache-style "
         "evaluation)",
         kvServeTasks, kvServePresent},
        {"kvtier", "KV tiering: per-tier compression on the DRAM/SSD "
                   "backing store behind the service's front cache",
         "beyond the paper: compressed tiers trade origin fetches for "
         "residency (ZipCache's DRAM/SSD argument)",
         kvTierTasks, kvTierPresent},
        {"lifetime", "Lifetime: NVM wear and years-to-failure ranking "
                     "of every scheme (L2C2-style endurance model)",
         "beyond the paper: compression reduces programmed bits, but "
         "log-structured writes also level wear across sets (L2C2's "
         "endurance argument)",
         lifetimeTasks, lifetimePresent},
    };
    return kFigures;
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &f : figures()) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

stats::Report
runFigure(const Figure &fig, unsigned jobs, sweep::Journal *journal)
{
    stats::Report rep;
    rep.figure = fig.name;
    rep.title = fig.title;
    rep.instrBudget = instrBudget();
    rep.warmupBudget = warmupBudget();
    std::vector<Task> tasks = fig.tasks();
    if (journal) {
        std::size_t resumed = 0;
        for (Task &t : tasks) {
            if (const RunRecord *done = journal->lookup(t.key)) {
                resumed++;
                t.run = [done](std::uint64_t) { return *done; };
                continue;
            }
            t.run = [journal, key = t.key,
                     inner = std::move(t.run)](std::uint64_t seed) {
                RunRecord rec = inner(seed);
                rec.key = key; // the engine stamps it only afterwards
                journal->append(rec);
                return rec;
            };
        }
        if (resumed > 0) {
            std::fprintf(stderr,
                         "[checkpoint] %s: resuming, %zu/%zu tasks "
                         "already journaled\n",
                         fig.name, resumed, tasks.size());
        }
    }
    sweep::Engine engine(jobs);
    rep.runs = engine.run(tasks);
    return rep;
}

int
sweepMain(int argc, char **argv)
{
    unsigned jobs = 0; // hardware_concurrency
    std::string outDir;
    std::string traceOut;
    std::string checkpointDir;
    std::vector<std::string> names;
    const auto parseJobs = [&jobs](const char *s) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(s, &end, 10);
        if (end == s || *end != '\0' || v > 4096) {
            std::fprintf(stderr, "--jobs: bad value '%s'\n", s);
            return false;
        }
        jobs = static_cast<unsigned>(v);
        return true;
    };
    const auto parseEpoch = [](const char *s) {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(s, &end, 10);
        if (end == s || *end != '\0' || v == 0) {
            std::fprintf(stderr, "--telemetry-epoch: bad value '%s'\n",
                         s);
            return std::uint64_t{0};
        }
        return static_cast<std::uint64_t>(v);
    };
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return 1;
            }
            if (!parseJobs(argv[++i]))
                return 1;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            if (!parseJobs(arg.c_str() + 7))
                return 1;
        } else if (arg == "--telemetry-epoch") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return 1;
            }
            if ((g_telemetryEpoch = parseEpoch(argv[++i])) == 0)
                return 1;
        } else if (arg.rfind("--telemetry-epoch=", 0) == 0) {
            if ((g_telemetryEpoch = parseEpoch(arg.c_str() + 18)) == 0)
                return 1;
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return 1;
            }
            traceOut = argv[++i];
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg == "--checkpoint-dir") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return 1;
            }
            checkpointDir = argv[++i];
        } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
            checkpointDir = arg.substr(17);
        } else if (arg == "--out" || arg == "-o") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                return 1;
            }
            outDir = argv[++i];
        } else if (arg.rfind("--out=", 0) == 0) {
            outDir = arg.substr(6);
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

    std::vector<const Figure *> selected;
    if (names.empty() || (names.size() == 1 && names[0] == "all")) {
        for (const auto &f : figures())
            selected.push_back(&f);
    } else {
        for (const auto &n : names) {
            const Figure *f = findFigure(n);
            if (!f) {
                std::fprintf(stderr, "unknown figure '%s' (--list)\n",
                             n.c_str());
                return 1;
            }
            selected.push_back(f);
        }
    }

    if (!outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(outDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         outDir.c_str(), ec.message().c_str());
            return 1;
        }
    }
    if (!checkpointDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(checkpointDir + "/warm",
                                            ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         checkpointDir.c_str(), ec.message().c_str());
            return 1;
        }
        g_warmDir = checkpointDir + "/warm";
    }
    g_traceEvents = !traceOut.empty();

    // Traces from every selected figure, in deterministic task order.
    std::vector<std::pair<std::string, telemetry::TraceBuffer>> traces;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Figure *fig : selected) {
        const auto f0 = std::chrono::steady_clock::now();
        std::unique_ptr<sweep::Journal> journal;
        if (!checkpointDir.empty()) {
            journal = std::make_unique<sweep::Journal>(
                checkpointDir + "/" + fig->name + ".journal");
            journal->load();
        }
        stats::Report rep;
        try {
            rep = runFigure(*fig, jobs, journal.get());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "[%s] FAILED: %s\n", fig->name,
                         e.what());
            return 1;
        }
        banner(*fig);
        fig->present(rep);
        if (g_traceEvents) {
            for (const auto &run : rep.runs)
                if (!run.trace.empty())
                    traces.emplace_back(run.key, run.trace);
        }
        if (!outDir.empty()) {
            const std::string path =
                outDir + "/" + fig->name + ".json";
            const std::string json = rep.toJson();
            if (!snap::atomicWriteFile(path, json.data(),
                                       json.size())) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                return 1;
            }
        }
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - f0)
                .count();
        std::fprintf(stderr, "[%s] %zu tasks in %.1fs\n", fig->name,
                     rep.runs.size(), secs);
        std::printf("\n");
        std::fflush(stdout);
    }
    if (!traceOut.empty()) {
        const std::string json = telemetry::chromeTraceJson(traces);
        if (!snap::atomicWriteFile(traceOut, json.data(),
                                   json.size())) {
            std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
            return 1;
        }
        std::fprintf(stderr, "trace: %zu traced runs -> %s\n",
                     traces.size(), traceOut.c_str());
    }
    if (selected.size() > 1) {
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        std::fprintf(stderr, "total: %zu figures in %.1fs\n",
                     selected.size(), secs);
    }
    return 0;
}

} // namespace bench
} // namespace morc
