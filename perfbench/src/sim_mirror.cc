#include "sim_mirror.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "digest.hh"
#include "sim/scheme.hh"

namespace perfbench {

using morc::Addr;
using morc::CacheLine;
using morc::Cycles;
using morc::kLineSize;

namespace {

std::vector<std::uint64_t>
bucketCounts(const morc::stats::Histogram &h)
{
    std::vector<std::uint64_t> v(h.numBuckets());
    for (std::size_t i = 0; i < v.size(); i++)
        v[i] = h.count(i);
    return v;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/** Visit every LlcStats counter with its name. */
template <typename Fn>
void
forEachLlcCounter(const morc::cache::LlcStats &s, Fn &&fn)
{
    fn("llc.reads", s.reads);
    fn("llc.read_hits", s.readHits);
    fn("llc.inserts", s.inserts);
    fn("llc.victim_writebacks", s.victimWritebacks);
    fn("llc.lines_compressed", s.linesCompressed);
    fn("llc.lines_decompressed", s.linesDecompressed);
    fn("llc.bytes_decompressed", s.bytesDecompressed);
    fn("llc.log_flushes", s.logFlushes);
    fn("llc.lmt_conflict_evicts", s.lmtConflictEvicts);
    fn("llc.cell_bits_written", s.cellBitsWritten);
    fn("llc.cell_bit_flips", s.cellBitFlips);
}

/** Visit every scalar counter of @p c (doubles as their bit pattern). */
template <typename Fn>
void
forEachCounter(const SimCounters &c, Fn &&fn)
{
    for (std::size_t i = 0; i < c.cores.size(); i++) {
        const morc::sim::CoreResult &r = c.cores[i];
        const std::string p = "core" + std::to_string(i) + ".";
        fn(p + "instructions", r.instructions);
        fn(p + "cycles", r.cycles);
        fn(p + "l1_accesses", r.l1Accesses);
        fn(p + "l1_misses", r.l1Misses);
        fn(p + "llc_hits", r.llcHits);
        fn(p + "llc_misses", r.llcMisses);
        fn(p + "stall_cycles", r.stallCycles);
    }
    fn("ratio", bitsOf(c.ratio));
    fn("mem_reads", c.memReads);
    fn("mem_writes", c.memWrites);
    fn("total_instructions", c.totalInstructions);
    fn("completion_cycles", c.completionCycles);
    forEachLlcCounter(c.llc, [&](const char *n, std::uint64_t v) {
        fn(n, v);
    });
    fn("noc_messages", c.nocMessages);
    fn("noc_mean_hops", bitsOf(c.nocMeanHops));
    fn("noc_hop_buckets", c.nocHops.size());
    for (std::size_t i = 0; i < c.nocHops.size(); i++)
        fn("noc_hops[" + std::to_string(i) + "]", c.nocHops[i]);
    fn("noc_queue_buckets", c.nocQueue.size());
    for (std::size_t i = 0; i < c.nocQueue.size(); i++)
        fn("noc_queue[" + std::to_string(i) + "]", c.nocQueue[i]);
}

} // namespace

SimCounters
countersOf(const morc::sim::RunResult &r)
{
    SimCounters c;
    c.cores = r.cores;
    c.ratio = r.compressionRatio;
    c.memReads = r.memReads;
    c.memWrites = r.memWrites;
    c.totalInstructions = r.totalInstructions;
    c.completionCycles = r.completionCycles;
    c.llc = r.llcStats;
    if (r.meshed) {
        c.nocMessages = r.nocMessages;
        c.nocMeanHops = r.nocMeanHops;
        c.nocHops = bucketCounts(r.nocHopHist);
        c.nocQueue = bucketCounts(r.nocQueueHist);
    }
    return c;
}

std::string
diffCounters(const SimCounters &a, const SimCounters &b)
{
    if (a.cores.size() != b.cores.size())
        return "core count";
    std::vector<std::pair<std::string, std::uint64_t>> va, vb;
    forEachCounter(a, [&](const std::string &n, std::uint64_t v) {
        va.emplace_back(n, v);
    });
    forEachCounter(b, [&](const std::string &n, std::uint64_t v) {
        vb.emplace_back(n, v);
    });
    if (va.size() != vb.size())
        return "histogram shape";
    for (std::size_t i = 0; i < va.size(); i++) {
        if (va[i].second != vb[i].second)
            return va[i].first + " (" + std::to_string(va[i].second) +
                   " vs " + std::to_string(vb[i].second) + ")";
    }
    return "";
}

std::uint64_t
digestCounters(const SimCounters &c)
{
    std::uint64_t h = kFnvBasis;
    forEachCounter(c, [&h](const std::string &, std::uint64_t v) {
        h = fnvFold(h, v);
    });
    return h;
}

// ----------------------------------------------------------------------
// The mirror. Each member below replicates the System member of the
// same name (src/sim/system.cc); the only additions are spans, the
// hit-value check and the self-test write-back drop.
// ----------------------------------------------------------------------

namespace {

std::unique_ptr<morc::cache::Llc>
buildLlc(const morc::sim::SystemConfig &cfg)
{
    const std::uint64_t total =
        cfg.llcBytesPerCore * cfg.numCores *
        (cfg.scheme == morc::sim::Scheme::Uncompressed8x ? 8 : 1);
    const morc::core::MorcConfig *morc =
        cfg.useMorcOverride ? &cfg.morc : nullptr;
    if (!cfg.useMesh)
        return morc::sim::makeLlc(cfg.scheme, total, morc);
    return std::make_unique<morc::mesh::BankedLlc>(
        cfg.meshCfg, total, [&cfg, morc](unsigned, std::uint64_t bytes) {
            return morc::sim::makeLlc(cfg.scheme, bytes, morc);
        });
}

Addr
localLine(Addr addr)
{
    return morc::lineNumber(addr & ((1ull << 40) - 1));
}

} // namespace

SimMirror::SimMirror(const SimJob &job, SpanTracer &tracer)
    : cfg_(job.cfg),
      tr_(tracer),
      llc_(buildLlc(job.cfg)),
      channel_(cfg_.bandwidthPerCore * cfg_.numCores, cfg_.clockHz,
               cfg_.dramCycles),
      ratioSampler_(cfg_.ratioSampleInterval)
{
    if (cfg_.checkFunctional || cfg_.telemetryEpoch != 0 ||
        cfg_.traceEvents || cfg_.decompressedBytesHistogram ||
        cfg_.hitLatencyHistogram ||
        job.programs.size() != cfg_.numCores) {
        throw std::invalid_argument(
            "configuration uses a System feature the mirror lacks");
    }
    cores_.resize(cfg_.numCores);
    for (unsigned i = 0; i < cfg_.numCores; i++) {
        cores_[i].trace = std::make_unique<morc::trace::ThreadTrace>(
            job.programs[i], i, i);
        cores_[i].l1 = morc::sim::L1Cache(cfg_.l1Bytes, cfg_.l1Ways);
        cores_[i].result.program = job.programs[i].name;
    }
    if (cfg_.useMesh) {
        banked_ = dynamic_cast<morc::mesh::BankedLlc *>(llc_.get());
        noc_ = std::make_unique<morc::mesh::Noc>(cfg_.meshCfg);
        const double per_channel = cfg_.bandwidthPerCore * cfg_.numCores /
                                   cfg_.meshCfg.memControllers;
        for (unsigned c = 0; c < cfg_.meshCfg.memControllers; c++)
            channels_.emplace_back(per_channel, cfg_.clockHz,
                                   cfg_.dramCycles);
    }
}

std::vector<std::uint64_t>
SimMirror::channelReads() const
{
    if (!noc_)
        return {channel_.reads()};
    std::vector<std::uint64_t> v;
    for (const auto &ch : channels_)
        v.push_back(ch.reads());
    return v;
}

CacheLine
SimMirror::line(const Core &core, Addr lnum, std::uint32_t version)
{
    return tr_.timed(TraceValues, [&] {
        return core.trace->values().line(lnum, version);
    });
}

CacheLine
SimMirror::dramFetch(const Core &core, Addr addr)
{
    auto it = dram_.find(morc::lineNumber(addr));
    if (it != dram_.end())
        return it->second;
    return line(core, localLine(addr), 0);
}

Cycles
SimMirror::transfer(unsigned from, unsigned to, unsigned bytes, Cycles now)
{
    return tr_.timed(MeshNoc,
                     [&] { return noc_->transfer(from, to, bytes, now); });
}

Cycles
SimMirror::readChannel(morc::sim::MemoryChannel &ch, Cycles now)
{
    const Cycles lat = tr_.timed(SimMem, [&] { return ch.readAccess(now); });
    readQueueCycles_ += lat - cfg_.dramCycles - ch.occupancyCycles(kLineSize);
    return lat;
}

Cycles
SimMirror::meshMemoryRead(Addr addr, unsigned bank_tile, Cycles now)
{
    const unsigned ctrl = cfg_.meshCfg.controllerFor(addr);
    const unsigned ctrl_tile = cfg_.meshCfg.controllerTile(ctrl);
    const Cycles req = transfer(bank_tile, ctrl_tile, 0, now);
    const Cycles mem = readChannel(channels_[ctrl], now + req);
    const Cycles rsp =
        transfer(ctrl_tile, bank_tile, kLineSize, now + req + mem);
    return req + mem + rsp;
}

void
SimMirror::handleWritebacks(const morc::cache::FillResult &fr, Cycles now)
{
    for (const auto &wb : fr.writebacks) {
        if (writebacks_++ == dropAt_)
            continue;
        if (noc_) {
            const unsigned bank_tile = banked_->homeBank(wb.addr);
            const unsigned ctrl = cfg_.meshCfg.controllerFor(wb.addr);
            const Cycles arrival =
                now + transfer(bank_tile, cfg_.meshCfg.controllerTile(ctrl),
                               kLineSize, now);
            tr_.timed(SimMem, [&] { channels_[ctrl].writeAccess(arrival); });
        } else {
            tr_.timed(SimMem, [&] { channel_.writeAccess(now); });
        }
        dram_[morc::lineNumber(wb.addr)] = wb.data;
    }
}

void
SimMirror::checkHit(const Core &core, Addr lnum, const CacheLine &data)
{
    tr_.timed(Harness, [&] {
        auto it = core.versions.find(lnum);
        const std::uint32_t ver = it == core.versions.end() ? 0 : it->second;
        if (!(data == core.trace->values().line(lnum, ver)))
            valueMismatches_++;
    });
}

void
SimMirror::step(unsigned core_idx)
{
    Core &core = cores_[core_idx];
    morc::sim::CoreResult &m = core.result;
    tr_.beginOp(opId_++);
    const morc::trace::MemRef ref =
        tr_.timed(TraceNext, [&] { return core.trace->next(); });

    m.instructions += ref.gap + 1;
    m.cycles += ref.gap;
    totalInstructions_ += ref.gap + 1;
    m.cycles += cfg_.l1Latency;
    m.l1Accesses++;

    const Addr lnum = localLine(ref.addr);
    if (tr_.timed(SimL1, [&] { return core.l1.lookup(ref.addr); })) {
        if (ref.write) {
            const std::uint32_t ver = ++core.versions[lnum];
            const CacheLine data = line(core, lnum, ver);
            tr_.timed(SimL1, [&] { core.l1.update(ref.addr, data); });
        }
        tr_.endOp();
        return;
    }

    m.l1Misses++;
    core.gapSum += static_cast<double>(m.cycles - core.lastMissCycle);

    const unsigned tiles = cfg_.meshCfg.tiles();
    Cycles latency = 0;
    unsigned home_tile = 0;
    if (noc_) {
        home_tile = banked_->homeBank(ref.addr);
        latency += transfer(core_idx % tiles, home_tile, 0, m.cycles);
    }
    latency += cfg_.llcLatency;
    CacheLine data;

    const morc::cache::ReadResult rr =
        tr_.timed(CacheRead, [&] { return llc_->read(ref.addr); });
    latency += rr.extraLatency;
    if (rr.hit) {
        m.llcHits++;
        data = rr.data;
        checkHit(core, lnum, data);
    } else {
        m.llcMisses++;
        if (noc_)
            latency += meshMemoryRead(ref.addr, home_tile, m.cycles + latency);
        else
            latency += readChannel(channel_, m.cycles + cfg_.llcLatency);
        data = dramFetch(core, ref.addr);
        if (!ref.write || cfg_.inclusiveWriteFills) {
            handleWritebacks(tr_.timed(CacheFill,
                                       [&] {
                                           return llc_->insert(ref.addr,
                                                               data, false);
                                       }),
                             noc_ ? m.cycles + latency : m.cycles);
        }
    }
    if (noc_) {
        latency += transfer(home_tile, core_idx % tiles, kLineSize,
                            m.cycles + latency);
    }

    if (ref.write) {
        const std::uint32_t ver = ++core.versions[lnum];
        data = line(core, lnum, ver);
    }

    const auto victim = tr_.timed(
        SimL1, [&] { return core.l1.fill(ref.addr, data, ref.write); });
    if (victim && victim->dirty) {
        if (noc_) {
            transfer(core_idx % tiles, banked_->homeBank(victim->addr),
                     kLineSize, m.cycles);
        }
        handleWritebacks(tr_.timed(CacheWriteback,
                                   [&] {
                                       return llc_->insert(victim->addr,
                                                           victim->data,
                                                           true);
                                   }),
                         m.cycles);
    }

    m.cycles += latency;

    const double mean_gap = core.gapSum / static_cast<double>(m.l1Misses);
    const double hidden =
        static_cast<double>(cfg_.threadsPerCore - 1) * mean_gap;
    const double l = static_cast<double>(latency);
    if (l > hidden)
        m.stallCycles += static_cast<std::uint64_t>(l - hidden);
    core.lastMissCycle = m.cycles;
    tr_.endOp();
}

void
SimMirror::runUntil(std::uint64_t target)
{
    for (;;) {
        unsigned pick = 0;
        Cycles min_cycles = ~0ull;
        bool done = true;
        for (unsigned i = 0; i < cores_.size(); i++) {
            const morc::sim::CoreResult &m = cores_[i].result;
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
        for (unsigned q = 0; q < cfg_.interleaveQuantum; q++) {
            step(pick);
            if (cores_[pick].result.instructions >= target)
                break;
        }
        ratioSampler_.tick(totalInstructions_,
                           [&] { return llc_->compressionRatio(); });
    }
}

void
SimMirror::warmup(std::uint64_t per_core)
{
    if (per_core == 0)
        return;
    runUntil(per_core);
    for (auto &core : cores_) {
        const std::string program = core.result.program;
        core.result = morc::sim::CoreResult{};
        core.result.program = program;
        core.gapSum = 0.0;
        core.lastMissCycle = 0;
    }
    llc_->stats().clear();
    llc_->clearWear();
    channel_.clearCounters();
    if (banked_)
        banked_->clearAllStats();
    for (auto &ch : channels_)
        ch.clearCounters();
    if (noc_)
        noc_->clearCounters();
    totalInstructions_ = 0;
    ratioSampler_.restart(0);
    readQueueCycles_ = 0;
}

SimCounters
SimMirror::measure(std::uint64_t per_core)
{
    runUntil(per_core);
    SimCounters c;
    for (const auto &core : cores_) {
        c.cores.push_back(core.result);
        c.completionCycles =
            std::max<Cycles>(c.completionCycles, core.result.cycles);
    }
    c.ratio = ratioSampler_.mean(llc_->compressionRatio());
    if (noc_) {
        for (const auto &ch : channels_) {
            c.memReads += ch.reads();
            c.memWrites += ch.writes();
        }
        c.nocMessages = noc_->messages();
        c.nocMeanHops = noc_->meanHops();
        c.nocHops = bucketCounts(noc_->hopHistogram());
        c.nocQueue = bucketCounts(noc_->queueHistogram());
    } else {
        c.memReads = channel_.reads();
        c.memWrites = channel_.writes();
    }
    c.totalInstructions = totalInstructions_;
    c.llc = llc_->stats();
    return c;
}

} // namespace perfbench
