/**
 * @file
 * A step-for-step replica of sim::System assembled from the layers'
 * public classes, so the traced run can put a span around every call
 * into trace, sim, cache and mesh without touching the program.
 *
 * The mirror is a stop-gap until spans live inside the program. Its
 * fidelity is checked, not assumed: every counter of its measured window
 * must equal the System's (SimCounters), and every LLC hit it sees must
 * return the value model's line.
 */

#ifndef PERFBENCH_SIM_MIRROR_HH
#define PERFBENCH_SIM_MIRROR_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mesh/banked_llc.hh"
#include "mesh/noc.hh"
#include "sim/l1.hh"
#include "sim/memchannel.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "stats/summary.hh"
#include "workloads.hh"

namespace perfbench {

/** Every counter of one measured window that the mirror must match. */
struct SimCounters
{
    std::vector<morc::sim::CoreResult> cores;
    double ratio = 0.0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t totalInstructions = 0;
    morc::Cycles completionCycles = 0;
    morc::cache::LlcStats llc;
    std::uint64_t nocMessages = 0;
    double nocMeanHops = 0.0;
    std::vector<std::uint64_t> nocHops;
    std::vector<std::uint64_t> nocQueue;
};

SimCounters countersOf(const morc::sim::RunResult &r);

/** Name of the first field where @p a and @p b differ ("" if none). */
std::string diffCounters(const SimCounters &a, const SimCounters &b);

/** FNV-1a over every counter, for round-to-round determinism checks. */
std::uint64_t digestCounters(const SimCounters &c);

class SimMirror
{
  public:
    /** @p job must not enable telemetry, event tracing, histograms or
     *  functional checking: the mirror does not replicate them. */
    SimMirror(const SimJob &job, SpanTracer &tracer);

    /** Self-test hook: silently drop the @p n-th write-back. */
    void dropWriteback(std::uint64_t n) { dropAt_ = n; }

    /** System::warmup(): run, then reset every measurement counter. */
    void warmup(std::uint64_t per_core);

    /** System::measure(): run and collect the window's counters. */
    SimCounters measure(std::uint64_t per_core);

    /** LLC hits whose line differed from the value model. */
    std::uint64_t valueMismatches() const { return valueMismatches_; }

    /** Write-backs seen so far (a dropped one included). */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Channel queueing cycles summed over measured-window reads. */
    std::uint64_t readQueueCycles() const { return readQueueCycles_; }

    /** Reads per memory channel (per controller on the mesh). */
    std::vector<std::uint64_t> channelReads() const;

    /** The NoC, or null on the flat path. */
    const morc::mesh::Noc *noc() const { return noc_.get(); }

  private:
    struct Core
    {
        std::unique_ptr<morc::trace::ThreadTrace> trace;
        morc::sim::L1Cache l1;
        morc::sim::CoreResult result;
        std::unordered_map<morc::Addr, std::uint32_t> versions;
        double gapSum = 0.0;
        morc::Cycles lastMissCycle = 0;
    };

    morc::CacheLine line(const Core &core, morc::Addr lnum,
                         std::uint32_t version);
    morc::CacheLine dramFetch(const Core &core, morc::Addr addr);
    morc::Cycles transfer(unsigned from, unsigned to, unsigned bytes,
                          morc::Cycles now);
    morc::Cycles readChannel(morc::sim::MemoryChannel &ch,
                             morc::Cycles now);
    morc::Cycles meshMemoryRead(morc::Addr addr, unsigned bank_tile,
                                morc::Cycles now);
    void handleWritebacks(const morc::cache::FillResult &fr,
                          morc::Cycles now);
    void checkHit(const Core &core, morc::Addr lnum,
                  const morc::CacheLine &data);
    void step(unsigned core_idx);
    void runUntil(std::uint64_t target);

    morc::sim::SystemConfig cfg_;
    SpanTracer &tr_;
    std::unique_ptr<morc::cache::Llc> llc_;
    morc::mesh::BankedLlc *banked_ = nullptr; // owned by llc_
    morc::sim::MemoryChannel channel_;
    std::vector<morc::sim::MemoryChannel> channels_;
    std::unique_ptr<morc::mesh::Noc> noc_;
    std::vector<Core> cores_;
    std::unordered_map<morc::Addr, morc::CacheLine> dram_;
    std::uint64_t totalInstructions_ = 0;
    morc::stats::PeriodicSampler ratioSampler_;

    std::uint64_t opId_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t dropAt_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t valueMismatches_ = 0;
    std::uint64_t readQueueCycles_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SIM_MIRROR_HH
