/**
 * @file
 * The manycore simulation driver: N in-order cores with private L1s over
 * one shared LLC and one FCFS bandwidth-capped memory channel, executing
 * synthetic benchmark traces (Table 5 configuration).
 *
 * With SystemConfig::useMesh the flat LLC is replaced by the tiled
 * substrate (src/mesh): one LLC bank slice per tile over a 2D mesh NoC,
 * with multiple memory controllers at edge tiles. Every L1 miss is then
 * routed core tile -> home-bank tile -> (controller tile) and the NoC's
 * hop latency and per-link bandwidth contention are charged into the
 * same per-access timing model; scheduling (interleaveQuantum) and seed
 * discipline are unchanged, so banked runs stay deterministic across
 * sweep thread counts.
 *
 * Timing is per-access: non-memory instructions cost one cycle (batched
 * via the trace's geometric gaps), L1 hits one cycle, LLC hits the base
 * latency plus the scheme's decompression annotation, and misses add the
 * channel's queueing + DRAM latency. Memory is timing only: it keeps no
 * bytes, because a line that no cache holds is at its latest version,
 * whose bytes are the value model's (lineBytes). A 4-thread coarse-grain
 * multithreading estimate (Section 4) is accumulated alongside: of each
 * memory latency, (threads-1) x the running average gap between L1
 * misses is hidden; the remainder stalls the core.
 */

#ifndef MORC_SIM_SYSTEM_HH
#define MORC_SIM_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/llc.hh"
#include "energy/energy.hh"
#include "mesh/banked_llc.hh"
#include "mesh/noc.hh"
#include "mesh/topology.hh"
#include "stats/histogram.hh"
#include "sim/l1.hh"
#include "sim/memchannel.hh"
#include "sim/scheme.hh"
#include "stats/summary.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/tracer.hh"
#include "trace/workload.hh"

namespace morc {
namespace sim {

/** Full system configuration (defaults are the paper's Table 5). */
struct SystemConfig
{
    Scheme scheme = Scheme::Uncompressed;

    unsigned numCores = 1;
    std::uint64_t llcBytesPerCore = 128 * 1024;

    /** Statically allocated bandwidth per core (100 MB/s default). */
    double bandwidthPerCore = 100e6;

    double clockHz = 2e9;
    std::uint64_t l1Bytes = 32 * 1024;
    unsigned l1Ways = 4;
    Cycles l1Latency = 1;
    Cycles llcLatency = 14;
    Cycles dramCycles = 70;

    /** Coarse-grain multithreading depth for the throughput model. */
    unsigned threadsPerCore = 4;

    /** Memory references a core executes before the scheduler picks
     *  the next core. 1 = cycle-accurate interleaving; larger quanta
     *  approximate PriME-style lockstep windows and preserve per-core
     *  burst locality at the shared LLC. */
    unsigned interleaveQuantum = 1;

    /** Insert lines fetched on write misses into the LLC (the
     *  "inclusive" behaviour of the Figure 12 study). */
    bool inclusiveWriteFills = false;

    /** Instructions (system-wide) between compression-ratio samples. */
    std::uint64_t ratioSampleInterval = 1000 * 1000;

    /** Verify every returned line against the expected value model. */
    bool checkFunctional = false;

    /** MORC parameter override for Morc/MorcMerged schemes. Its
     *  capacityBytes and mergedTags are ignored: the LLC is sized from
     *  llcBytesPerCore x numCores, and MorcMerged selects merged tags. */
    core::MorcConfig morc{};
    bool useMorcOverride = false;

    /** Tiled-manycore substrate: shard the LLC into one bank per tile
     *  over a 2D-mesh NoC with meshCfg.memControllers memory channels
     *  (total bandwidth = bandwidthPerCore x numCores, split evenly).
     *  Core i runs on tile i % tiles; bank b lives at tile b. */
    mesh::MeshConfig meshCfg{};
    bool useMesh = false;

    /** Optional: record decompressor output bytes per LLC read hit
     *  (the Figure 14 log-position distribution). Not owned. */
    stats::Histogram *decompressedBytesHistogram = nullptr;

    /** Optional: record the total LLC hit latency in cycles (base +
     *  decompression + NoC on the mesh path). Not owned. */
    stats::Histogram *hitLatencyHistogram = nullptr;

    /** Simulated cycles between telemetry samples; 0 = sampling off
     *  (zero cost: no registry is built). Epoch boundaries are global
     *  simulated time, so series are identical for any --jobs. */
    Cycles telemetryEpoch = 0;

    /** Series capacity; epochs beyond it are counted as dropped. */
    std::size_t telemetryMaxSamples =
        telemetry::Registry::kDefaultMaxSamples;

    /** Record cycle-stamped structured events (RunResult::trace);
     *  off = no tracer is built and emission sites cost one null
     *  check. */
    bool traceEvents = false;

    /** Event ring capacity (flight recorder: oldest dropped first). */
    std::size_t traceCapacity = telemetry::Tracer::kDefaultCapacity;

    /** An insert surfacing this many write-backs at once is traced as
     *  a WritebackBurst event. */
    std::size_t writebackBurstThreshold = 4;

    /** A message queueing this long at one link is traced as a
     *  NocStall event (mesh path only). */
    Cycles nocStallThreshold = 64;
};

/** Per-core outcome metrics. */
struct CoreResult
{
    std::string program;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t stallCycles = 0; // CGMT residual stalls

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }

    /** Normalized multithreaded throughput (instructions per cycle of
     *  the 4-thread model; 1.0 = never stalled). */
    double
    throughput() const
    {
        const double busy =
            static_cast<double>(instructions + stallCycles);
        return busy == 0.0 ? 0.0
                           : static_cast<double>(instructions) / busy;
    }
};

/** Whole-run outcome. */
struct RunResult
{
    std::vector<CoreResult> cores;

    /** Time-sampled mean compression ratio (paper methodology). */
    double compressionRatio = 1.0;

    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t totalInstructions = 0;
    Cycles completionCycles = 0;

    cache::LlcStats llcStats;
    energy::EnergyBreakdown energyBreakdown;

    /** NVM wear/lifetime forecast from the run's write histogram. */
    energy::LifetimeForecast lifetime;

    /** MORC-only extras (zero otherwise). */
    double invalidLineFraction = 0.0;

    /** Mesh-substrate extras (meshed == false for the flat path). */
    bool meshed = false;
    std::uint64_t nocMessages = 0;
    double nocMeanHops = 0.0;
    stats::Histogram nocHopHist;
    stats::Histogram nocQueueHist;

    /** Epoch-sampled probe series (empty unless telemetryEpoch > 0). */
    telemetry::SeriesSet series;

    /** Structured event trace (empty unless traceEvents). */
    telemetry::TraceBuffer trace;

    /** Off-chip traffic in GB per billion instructions (Figure 6b). */
    double
    gbPerBillionInstr() const
    {
        if (totalInstructions == 0)
            return 0.0;
        const double bytes =
            static_cast<double>((memReads + memWrites) * kLineSize);
        return bytes / 1e9 * 1e9 /
               static_cast<double>(totalInstructions);
    }

    double meanIpc() const;
    double gmeanIpc() const;
    double meanThroughput() const;
};

/** One simulated system instance. */
class System
{
  public:
    /**
     * @param cfg      System parameters.
     * @param programs One benchmark per core (size = numCores).
     */
    System(const SystemConfig &cfg,
           const std::vector<trace::BenchmarkSpec> &programs);

    /**
     * Run until every core retires @p instructions_per_core measured
     * instructions, after an unmeasured warm-up phase (the paper warms
     * for 100 M before measuring 30 M). Equivalent to warmup() (when
     * warmup_per_core > 0) followed by measure().
     */
    RunResult run(std::uint64_t instructions_per_core,
                  std::uint64_t warmup_per_core = 0);

    /**
     * Warm-up phase alone: simulate @p warmup_per_core instructions
     * per core, then reset every measurement counter while the
     * architectural state (caches, version maps, trace cursors) stays
     * warm. The system is then checkpoint-ready: save() + restore()
     * into a fresh instance + measure() reproduces run() exactly.
     */
    void warmup(std::uint64_t warmup_per_core);

    /** The measured window alone (run() minus the warm-up phase). */
    RunResult measure(std::uint64_t instructions_per_core);

    /** True once warmup() has completed (survives save/restore). */
    bool warmed() const { return warmed_; }

    /**
     * Append the complete simulator state: config fingerprint, per-core
     * state (results, L1, trace cursor, version map), LLC scheme state
     * (flat or banked), memory channels, NoC, telemetry. Memory has no
     * state beyond its channels' timing: its bytes are the version
     * maps' lines.
     */
    void saveState(snap::Serializer &s) const;

    /**
     * Restore state written by saveState() into this identically
     * configured System, in place: both run the same walk. Any config
     * mismatch, out-of-range value or malformed byte latches into @p d
     * and may leave the system (and the caller-owned histograms of its
     * config) half-written; the caller must discard this instance when
     * !d.ok().
     */
    void restoreState(snap::Deserializer &d);

    /** saveState() framed, CRC-sealed, and atomically written. */
    bool save(const std::string &path,
              std::string *error = nullptr) const;

    /** Load, validate, and restore a snapshot file; on failure the
     *  system must be discarded and the caller falls back to a cold
     *  run. @p error (if given) receives the reason. */
    bool restore(const std::string &path, std::string *error = nullptr);

    cache::Llc &llc() { return *llc_; }
    const SystemConfig &config() const { return cfg_; }

  private:
    struct Core
    {
        std::unique_ptr<trace::ThreadTrace> trace;
        L1Cache l1;
        CoreResult result;
        /** Store mutation counters, keyed by local line number. */
        std::unordered_map<Addr, std::uint32_t> versions;
        double gapSum = 0.0; // compute cycles between L1 misses
        Cycles lastMissCycle = 0;
    };

    /** Local (per-program) line number of an address. */
    static Addr
    localLine(Addr addr)
    {
        return lineNumber(addr & ((1ull << 40) - 1));
    }

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    /** Bytes of @p core's line at @p addr: its value model at the
     *  line's current version (the stores recorded for it, 0 if none).
     *  Every copy of the line the simulation holds equals this; a dirty
     *  L1 line's bytes and an LLC miss's fill are made only here. */
    static CacheLine lineBytes(const Core &core, Addr addr);

    void handleWritebacks(const cache::FillResult &fr, Cycles now);
    void step(unsigned core_idx);
    void runUntil(std::uint64_t instructions_per_core);

    /** Tile hosting core @p core_idx (mesh path only). */
    unsigned
    coreTile(unsigned core_idx) const
    {
        return core_idx % cfg_.meshCfg.tiles();
    }

    /** Off-chip read routed over the mesh: home bank -> controller ->
     *  home bank, charging NoC contention plus channel queueing.
     *  @return Latency from @p now until the line is back at the bank. */
    Cycles meshMemoryRead(Addr addr, unsigned bank_tile, Cycles now);

    SystemConfig cfg_;
    std::unique_ptr<cache::Llc> llc_;
    std::vector<Core> cores_;
    std::uint64_t totalInstructions_ = 0;
    stats::PeriodicSampler ratioSampler_;
    bool warmed_ = false;

    /** One memory channel per controller: a single one on the flat
     *  path, meshCfg.memControllers on the mesh. */
    std::vector<MemoryChannel> channels_;

    /** Mesh-substrate state (null on the flat path). */
    std::unique_ptr<mesh::Noc> noc_;
    mesh::BankedLlc *banked_ = nullptr; // owned by llc_; morc-analyze: allow(snapshot-completeness) alias, snapshotted via llc_

    /** Telemetry (null when off). Declared after every probed member:
     *  probes capture raw pointers into them, so the registry and
     *  tracer must be destroyed first. */
    std::unique_ptr<telemetry::Registry> telemetry_;
    std::unique_ptr<telemetry::Tracer> tracer_;
    std::uint16_t sysTrack_ = 0; // morc-analyze: allow(snapshot-completeness) track id re-registered at construction

    /** Warm-up snapshots of the caller-owned histograms, subtracted at
     *  the end of the run so reported distributions cover only the
     *  measured phase. */
    stats::Histogram warmupDecompBytes_;
    stats::Histogram warmupHitLatency_;

    void setupTelemetry();
};

} // namespace sim
} // namespace morc

#endif // MORC_SIM_SYSTEM_HH
