#include "sim/system.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "check/check.hh"
#include "core/morc.hh"

namespace morc {
namespace sim {

double
RunResult::meanIpc() const
{
    std::vector<double> v;
    for (const auto &c : cores)
        v.push_back(c.ipc());
    return stats::amean(v);
}

double
RunResult::gmeanIpc() const
{
    std::vector<double> v;
    for (const auto &c : cores)
        v.push_back(c.ipc());
    return stats::gmean(v);
}

double
RunResult::meanThroughput() const
{
    std::vector<double> v;
    for (const auto &c : cores)
        v.push_back(c.throughput());
    return stats::amean(v);
}

namespace {

/** Flat or banked LLC, per the config. */
std::unique_ptr<cache::Llc>
buildLlc(const SystemConfig &cfg)
{
    const std::uint64_t total =
        cfg.llcBytesPerCore * cfg.numCores *
        (cfg.scheme == Scheme::Uncompressed8x ? 8 : 1);
    const core::MorcConfig *morc =
        cfg.useMorcOverride ? &cfg.morc : nullptr;
    if (!cfg.useMesh)
        return makeLlc(cfg.scheme, total, morc);
    // Each bank slice is a full scheme instance (own log stores, LMT,
    // tag store) sized to its share of the capacity.
    return std::make_unique<mesh::BankedLlc>(
        cfg.meshCfg, total,
        [&cfg, morc](unsigned, std::uint64_t bank_bytes) {
            return makeLlc(cfg.scheme, bank_bytes, morc);
        });
}

} // namespace

System::System(const SystemConfig &cfg,
               const std::vector<trace::BenchmarkSpec> &programs)
    : cfg_(cfg),
      llc_(buildLlc(cfg)),
      ratioSampler_(cfg.ratioSampleInterval)
{
    MORC_CHECK(programs.size() == cfg.numCores,
               "%zu trace programs supplied for %u cores",
               programs.size(), cfg.numCores);
    cores_.resize(cfg.numCores);
    for (unsigned i = 0; i < cfg.numCores; i++) {
        cores_[i].trace =
            std::make_unique<trace::ThreadTrace>(programs[i], i, i);
        cores_[i].l1 = L1Cache(cfg.l1Bytes, cfg.l1Ways);
        cores_[i].result.program = programs[i].name;
    }
    if (cfg_.useMesh) {
        banked_ = dynamic_cast<mesh::BankedLlc *>(llc_.get());
        MORC_CHECK(banked_ != nullptr, "mesh path without a banked LLC");
        noc_ = std::make_unique<mesh::Noc>(cfg_.meshCfg);
    }
    // One aggregate bandwidth budget, split evenly over the mesh's edge
    // controllers; the flat system is the one-controller case.
    const unsigned controllers =
        cfg_.useMesh ? cfg_.meshCfg.memControllers : 1;
    const double per_channel =
        cfg_.bandwidthPerCore * cfg_.numCores / controllers;
    channels_.reserve(controllers);
    for (unsigned c = 0; c < controllers; c++)
        channels_.emplace_back(per_channel, cfg_.clockHz, cfg_.dramCycles);
    setupTelemetry();
}

void
System::setupTelemetry()
{
    if (cfg_.traceEvents) {
        tracer_ =
            std::make_unique<telemetry::Tracer>(cfg_.traceCapacity);
        sysTrack_ = tracer_->track("sys");
        llc_->attachTracer(tracer_.get(), tracer_->track("llc"));
        if (noc_) {
            noc_->attachTracer(tracer_.get(), tracer_->track("noc"),
                               cfg_.nocStallThreshold);
        }
    }
    if (cfg_.telemetryEpoch == 0)
        return;
    telemetry_ = std::make_unique<telemetry::Registry>(
        cfg_.telemetryEpoch, cfg_.telemetryMaxSamples);
    // Registration order fixes the series order in reports: system,
    // LLC (scheme), NoC, channels.
    telemetry_->counter("sys.instructions", [this](Cycles) {
        return double(totalInstructions_);
    });
    telemetry_->counter("sys.l1_misses", [this](Cycles) {
        std::uint64_t n = 0;
        for (const auto &c : cores_)
            n += c.result.l1Misses;
        return double(n);
    });
    llc_->registerProbes(*telemetry_, "llc");
    if (noc_)
        noc_->registerProbes(*telemetry_, "noc");
    for (std::size_t c = 0; c < channels_.size(); c++) {
        channels_[c].registerProbes(
            *telemetry_, noc_ ? "mem" + std::to_string(c) : "mem");
    }
}

CacheLine
System::lineBytes(const Core &core, Addr addr)
{
    const Addr lnum = localLine(addr);
    const auto it = core.versions.find(lnum);
    return core.trace->values().line(
        lnum, it == core.versions.end() ? 0u : it->second);
}

void
System::handleWritebacks(const cache::FillResult &fr, Cycles now)
{
    if (tracer_ &&
        fr.writebacks.size() >= cfg_.writebackBurstThreshold) {
        tracer_->record(telemetry::EventKind::WritebackBurst, sysTrack_,
                        fr.writebacks.size(), fr.linesDecompressed);
    }
    for (const auto &wb : fr.writebacks) {
        if (noc_) {
            // Cross-bank exclusivity guarantees the victim was evicted
            // from its home bank; the write-back is posted over the
            // mesh to the owning controller and occupies both NoC
            // links and channel bandwidth, invisible to core latency.
            const unsigned bank_tile = banked_->homeBank(wb.addr);
            const unsigned ctrl = cfg_.meshCfg.controllerFor(wb.addr);
            const Cycles arrival =
                now + noc_->transfer(bank_tile,
                                     cfg_.meshCfg.controllerTile(ctrl),
                                     kLineSize, now);
            channels_[ctrl].writeAccess(arrival);
        } else {
            channels_[0].writeAccess(now);
        }
    }
}

Cycles
System::meshMemoryRead(Addr addr, unsigned bank_tile, Cycles now)
{
    const unsigned ctrl = cfg_.meshCfg.controllerFor(addr);
    const unsigned ctrl_tile = cfg_.meshCfg.controllerTile(ctrl);
    const Cycles req = noc_->transfer(bank_tile, ctrl_tile, 0, now);
    const Cycles mem = channels_[ctrl].readAccess(now + req);
    const Cycles rsp = noc_->transfer(ctrl_tile, bank_tile, kLineSize,
                                      now + req + mem);
    return req + mem + rsp;
}

void
System::step(unsigned core_idx)
{
    Core &core = cores_[core_idx];
    CoreResult &m = core.result;
    const trace::MemRef ref = core.trace->next();

    // Batch the non-memory instructions (CPI 1).
    m.instructions += ref.gap + 1;
    m.cycles += ref.gap;
    totalInstructions_ += ref.gap + 1;

    m.cycles += cfg_.l1Latency;
    m.l1Accesses++;

    // A store only bumps the line's version: the L1 holds no bytes for
    // a dirty line, and lineBytes() synthesizes them when it leaves.
    if (core.l1.lookup(ref.addr)) {
        if (ref.write) {
            ++core.versions[localLine(ref.addr)];
            core.l1.markDirty(ref.addr);
        } else if (cfg_.checkFunctional) {
            const CacheLine *got = core.l1.peek(ref.addr);
            if (got && !(*got == lineBytes(core, ref.addr))) {
                std::fprintf(stderr, "functional mismatch (L1)\n");
                std::abort();
            }
        }
        return;
    }

    // ---- L1 miss: the compute gap since the previous miss feeds the
    // CGMT latency-hiding model.
    m.l1Misses++;
    const double gap =
        static_cast<double>(m.cycles - core.lastMissCycle);
    core.gapSum += gap;

    // Components below know no clock; stamp the stepping core's local
    // time so their events carry simulated cycles.
    if (tracer_)
        tracer_->setNow(m.cycles);

    Cycles latency = 0;
    unsigned home_tile = 0;
    if (noc_) {
        // Request flit from the core's tile to the line's home bank.
        home_tile = banked_->homeBank(ref.addr);
        latency += noc_->transfer(coreTile(core_idx), home_tile, 0,
                                  m.cycles);
    }
    latency += cfg_.llcLatency;
    CacheLine data;

    cache::ReadResult rr = llc_->read(ref.addr);
    latency += rr.extraLatency;
    if (rr.hit) {
        m.llcHits++;
        data = rr.data;
        if (cfg_.decompressedBytesHistogram)
            cfg_.decompressedBytesHistogram->record(
                rr.bytesDecompressed);
    } else {
        m.llcMisses++;
        if (noc_)
            latency += meshMemoryRead(ref.addr, home_tile,
                                      m.cycles + latency);
        else
            latency +=
                channels_[0].readAccess(m.cycles + cfg_.llcLatency);
        // Non-inclusive fill policy (Section 5.4.2): read misses fill
        // the LLC; write misses fill only the L1 unless the inclusive
        // mode of the Figure 12 study is on. A store overwrites what a
        // write miss fetches, so it reads memory's bytes only to fill
        // the LLC. No cache holds the line, so memory holds its latest
        // version: the model's bytes, before this store bumps it.
        if (!ref.write || cfg_.inclusiveWriteFills) {
            data = lineBytes(core, ref.addr);
            handleWritebacks(llc_->insert(ref.addr, data, false),
                             noc_ ? m.cycles + latency : m.cycles);
        }
    }
    if (noc_) {
        // Data response from the home bank back to the core's tile.
        latency += noc_->transfer(home_tile, coreTile(core_idx),
                                  kLineSize, m.cycles + latency);
    }
    if (rr.hit && cfg_.hitLatencyHistogram)
        cfg_.hitLatencyHistogram->record(latency);

    // A miss's bytes are the model's by construction; only a hit can
    // disagree with it.
    if (cfg_.checkFunctional && !ref.write && rr.hit &&
        !(data == lineBytes(core, ref.addr))) {
        std::fprintf(stderr, "functional mismatch (LLC)\n");
        std::abort();
    }

    std::optional<L1Victim> victim;
    if (ref.write) {
        ++core.versions[localLine(ref.addr)];
        victim = core.l1.fillDirty(ref.addr);
    } else {
        victim = core.l1.fill(ref.addr, data, false);
    }

    // A displaced dirty line is written back to the (non-inclusive)
    // LLC; its bytes are synthesized here, once.
    if (victim && victim->dirty) {
        // Over the mesh the victim line is a posted transfer from the
        // core's tile to its own home bank (which need not be the bank
        // the miss was served from).
        if (noc_) {
            noc_->transfer(coreTile(core_idx),
                           banked_->homeBank(victim->addr), kLineSize,
                           m.cycles);
        }
        handleWritebacks(
            llc_->insert(victim->addr, lineBytes(core, victim->addr), true),
            m.cycles);
    }

    m.cycles += latency;

    // CGMT throughput estimate: (threads-1) x the running mean gap of
    // this core hides that much of the latency; the rest stalls.
    const double mean_gap =
        core.gapSum / static_cast<double>(m.l1Misses);
    const double hidden =
        static_cast<double>(cfg_.threadsPerCore - 1) * mean_gap;
    const double l = static_cast<double>(latency);
    if (l > hidden)
        m.stallCycles += static_cast<std::uint64_t>(l - hidden);
    core.lastMissCycle = m.cycles;
}

void
System::runUntil(std::uint64_t target)
{
    bool done = false;
    while (!done) {
        // Advance the core that is furthest behind in local time, so
        // cores interleave at the shared LLC in (approximate) cycle
        // order, like PriME's lock-step quanta.
        unsigned pick = 0;
        Cycles min_cycles = ~0ull;
        done = true;
        for (unsigned i = 0; i < cores_.size(); i++) {
            const CoreResult &m = cores_[i].result;
            if (m.instructions >= target)
                continue;
            done = false;
            if (m.cycles < min_cycles) {
                min_cycles = m.cycles;
                pick = i;
            }
        }
        if (done)
            break;
        // min_cycles is the global simulated-time front (the picked
        // core is the furthest behind and it only moves forward), so
        // sampling here hits every epoch boundary exactly once, in
        // order, independent of sweep threading.
        if (telemetry_)
            telemetry_->advanceTo(min_cycles);
        for (unsigned q = 0; q < cfg_.interleaveQuantum; q++) {
            step(pick);
            if (cores_[pick].result.instructions >= target)
                break;
        }
        ratioSampler_.tick(totalInstructions_, [&] {
            return llc_->compressionRatio();
        });
    }
}

RunResult
System::run(std::uint64_t instructions_per_core,
            std::uint64_t warmup_per_core)
{
    if (warmup_per_core > 0)
        warmup(warmup_per_core);
    return measure(instructions_per_core);
}

void
System::warmup(std::uint64_t warmup_per_core)
{
    if (warmup_per_core == 0)
        return;
    runUntil(warmup_per_core);
    // Snapshot the caller-owned histograms: warm-up samples are
    // subtracted from the final distributions in measure().
    if (cfg_.decompressedBytesHistogram)
        warmupDecompBytes_ = *cfg_.decompressedBytesHistogram;
    if (cfg_.hitLatencyHistogram)
        warmupHitLatency_ = *cfg_.hitLatencyHistogram;
    // Reset measurement state; architectural state stays warm.
    for (auto &core : cores_) {
        const std::string program = core.result.program;
        core.result = CoreResult{};
        core.result.program = program;
        core.gapSum = 0.0;
        core.lastMissCycle = 0;
    }
    llc_->stats().clear();
    llc_->clearWear();
    if (banked_)
        banked_->clearAllStats();
    for (auto &ch : channels_)
        ch.clearCounters();
    if (noc_)
        noc_->clearCounters();
    totalInstructions_ = 0;
    ratioSampler_.restart(0);
    if (telemetry_)
        telemetry_->restart();
    if (tracer_)
        tracer_->clear();
    warmed_ = true;
}

RunResult
System::measure(std::uint64_t instructions_per_core)
{
    runUntil(instructions_per_core);

    // Rebase the caller-owned histograms to the measured phase.
    if (warmed_) {
        if (cfg_.decompressedBytesHistogram) {
            *cfg_.decompressedBytesHistogram =
                *cfg_.decompressedBytesHistogram - warmupDecompBytes_;
        }
        if (cfg_.hitLatencyHistogram) {
            *cfg_.hitLatencyHistogram =
                *cfg_.hitLatencyHistogram - warmupHitLatency_;
        }
    }

    RunResult out;
    for (auto &core : cores_)
        out.cores.push_back(core.result);
    out.compressionRatio =
        ratioSampler_.mean(llc_->compressionRatio());
    for (const auto &ch : channels_) {
        out.memReads += ch.reads();
        out.memWrites += ch.writes();
    }
    if (noc_) {
        out.meshed = true;
        out.nocMessages = noc_->messages();
        out.nocMeanHops = noc_->meanHops();
        out.nocHopHist = noc_->hopHistogram();
        out.nocQueueHist = noc_->queueHistogram();
    }
    out.totalInstructions = totalInstructions_;
    for (const auto &core : cores_)
        out.completionCycles =
            std::max(out.completionCycles, core.result.cycles);
    out.llcStats = llc_->stats();

    // Energy integration (Section 5.3 categories).
    energy::EnergyEvents ev;
    ev.cycles = out.completionCycles;
    for (const auto &core : cores_)
        ev.l1Accesses += core.result.l1Accesses;
    // LLC data-array touches: every insert and hit touches the array;
    // stream decompression (MORC) reads additional resident lines, the
    // surplus beyond one line per hit.
    const auto &ls = out.llcStats;
    ev.llcAccesses = ls.inserts + ls.readHits +
                     (ls.linesDecompressed > ls.readHits
                          ? ls.linesDecompressed - ls.readHits
                          : 0);
    ev.dramAccesses = out.memReads + out.memWrites;
    ev.linesCompressed = ls.linesCompressed;
    ev.linesDecompressed = ls.linesDecompressed;
    const double capacity_ratio =
        cfg_.scheme == Scheme::Uncompressed8x ? 8.0 : 1.0;
    out.energyBreakdown =
        energy::integrate(ev, schemeInfo(cfg_.scheme).engine,
                          energy::EnergyParams{}, capacity_ratio,
                          cfg_.numCores);

    if (auto *log_cache = dynamic_cast<core::LogCache *>(llc_.get()))
        out.invalidLineFraction = log_cache->invalidLineFraction();
    else if (banked_)
        out.invalidLineFraction = banked_->invalidLineFraction();

    // NVM wear forecast over the measured phase, from the per-frame
    // write histogram the scheme charged insert by insert.
    out.lifetime = energy::forecastLifetime(llc_->wearSnapshot(),
                                            out.completionCycles,
                                            llc_->capacityBytes() * 8);

    if (telemetry_)
        out.series = telemetry_->snapshot();
    if (tracer_)
        out.trace = tracer_->snapshot();
    return out;
}

template <typename Self, typename IO>
void
System::walk(Self &self, IO &io)
{
    io.section("SYSS", [&] {
        // Structural fingerprint: restore refuses a snapshot taken under
        // any other configuration, because component state would
        // silently mean something different.
        io.section("SCFG", [&] {
            const SystemConfig &cfg = self.cfg_;
            const char *config = "system configuration mismatch";
            io.expect(static_cast<std::uint8_t>(cfg.scheme), config);
            io.expect(cfg.numCores, config);
            io.expect(cfg.llcBytesPerCore, config);
            io.expect(cfg.bandwidthPerCore, config);
            io.expect(cfg.clockHz, config);
            io.expect(cfg.l1Bytes, config);
            io.expect(cfg.l1Ways, config);
            io.expect(cfg.l1Latency, config);
            io.expect(cfg.llcLatency, config);
            io.expect(cfg.dramCycles, config);
            io.expect(cfg.threadsPerCore, config);
            io.expect(cfg.interleaveQuantum, config);
            io.expect(cfg.inclusiveWriteFills, config);
            io.expect(cfg.ratioSampleInterval, config);
            io.expect(cfg.checkFunctional, config);
            io.expect(cfg.useMorcOverride, config);
            // The LLC's walk checks MORC's geometry but not its timing.
            if (cfg.useMorcOverride) {
                io.expect(cfg.morc.decompressBytesPerCycle, config);
                io.expect(cfg.morc.tagsPerCycle, config);
                io.expect(cfg.morc.parallelTagData, config);
            }
            io.expect(cfg.useMesh, config);
            io.expect(cfg.meshCfg.width, config);
            io.expect(cfg.meshCfg.height, config);
            io.expect(cfg.meshCfg.memControllers, config);
            io.expect(cfg.meshCfg.interleaveBytes, config);
            io.expect(cfg.meshCfg.hopCycles, config);
            io.expect(cfg.meshCfg.linkBytesPerCycle, config);
            io.expect(cfg.meshCfg.headerBytes, config);
            io.expect(cfg.telemetryEpoch, config);
            io.expect(static_cast<std::uint64_t>(cfg.telemetryMaxSamples),
                      config);
            io.expect(cfg.traceEvents, config);
            io.expect(static_cast<std::uint64_t>(cfg.traceCapacity),
                      config);
            io.expect(
                static_cast<std::uint64_t>(cfg.writebackBurstThreshold),
                config);
            io.expect(cfg.nocStallThreshold, config);
            io.expect(cfg.decompressedBytesHistogram != nullptr, config);
            io.expect(cfg.hitLatencyHistogram != nullptr, config);
            io.fixedVec(self.cores_, 8, "core count mismatch",
                        [&](auto &c) {
                            io.expect(c.result.program,
                                      "workload mismatch");
                        });
        });

        io.section("SYS ", [&] {
            io.u64(self.totalInstructions_);
            io.part(self.ratioSampler_);
            io.boolean(self.warmed_);
            stats::Histogram::walk(self.warmupDecompBytes_, io, true);
            stats::Histogram::walk(self.warmupHitLatency_, io, true);
            // Caller-owned histogram contents travel with the snapshot
            // so a warm restore hands the warm distribution back to the
            // caller.
            if (self.cfg_.decompressedBytesHistogram)
                io.part(*self.cfg_.decompressedBytesHistogram);
            if (self.cfg_.hitLatencyHistogram)
                io.part(*self.cfg_.hitLatencyHistogram);
        });

        for (auto &c : self.cores_) {
            io.section("CORE", [&] {
                io.expect(c.result.program, "core program mismatch");
                io.u64(c.result.instructions);
                io.u64(c.result.cycles);
                io.u64(c.result.l1Accesses);
                io.u64(c.result.l1Misses);
                io.u64(c.result.llcHits);
                io.u64(c.result.llcMisses);
                io.u64(c.result.stallCycles);
                io.f64(c.gapSum);
                io.u64(c.lastMissCycle);
                io.sortedMap(c.versions, 8 + 4,
                             [&](auto &line, auto &version) {
                                 io.u64(line);
                                 io.u32(version);
                             });
                // A save writes every L1 way's bytes, so dirty ways get
                // the model's bytes at their current version.
                if constexpr (std::is_const_v<Self>) {
                    io.part(c.l1.withDirtyBytes(
                        [&](Addr addr) { return lineBytes(c, addr); }));
                } else {
                    io.part(c.l1);
                }
                io.part(*c.trace);
            });
        }

        io.part(*self.llc_);
        if (self.noc_)
            io.part(*self.noc_);
        for (auto &ch : self.channels_)
            io.part(ch);
        if (self.telemetry_)
            io.part(*self.telemetry_);
        if (self.tracer_)
            io.part(*self.tracer_);
    });
}

void
System::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
System::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

bool
System::save(const std::string &path, std::string *error) const
{
    snap::Serializer s;
    saveState(s);
    if (!s.writeFile(path)) {
        if (error)
            *error = "cannot write snapshot file " + path;
        return false;
    }
    return true;
}

bool
System::restore(const std::string &path, std::string *error)
{
    snap::Deserializer d = snap::Deserializer::fromFile(path);
    if (d.ok())
        restoreState(d);
    if (!d.ok()) {
        if (error)
            *error = d.error();
        return false;
    }
    return true;
}

} // namespace sim
} // namespace morc
