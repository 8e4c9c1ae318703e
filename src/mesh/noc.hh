/**
 * @file
 * 2D-mesh network-on-chip timing model.
 *
 * Messages are XY-routed (x first, then y — deadlock-free dimension
 * order). The head flit pays @ref MeshConfig::hopCycles per router; each
 * directed link is a bandwidth resource that serializes one message at a
 * time, so queueing delay emerges from per-link occupancy exactly as
 * memory-channel queueing does in sim::MemoryChannel. Wormhole-style:
 * serialization is paid once (the pipeline drains behind the head), but
 * every traversed link is held for the full serialization time.
 *
 * The model is deliberately state-light — one busy-until cycle per
 * directed link — so a 32x32 mesh costs a few KB and stays trivially
 * deterministic: latency depends only on the sequence of transfer()
 * calls, never on host state.
 */

#ifndef MORC_MESH_NOC_HH
#define MORC_MESH_NOC_HH

#include <cstdint>
#include <vector>

#include "mesh/topology.hh"
#include "stats/histogram.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/tracer.hh"
#include "util/types.hh"

namespace morc {
namespace mesh {

/** Mesh NoC with per-link bandwidth contention. */
class Noc
{
  public:
    explicit Noc(const MeshConfig &cfg);

    /**
     * Deliver @p bytes of payload from tile @p from to tile @p to,
     * entering the network at cycle @p now.
     *
     * Charges occupancy on every traversed link (later transfers queue
     * behind it) and returns the delivery latency in cycles. A
     * tile-local message (from == to) is free. For posted messages
     * (write-backs) the caller simply ignores the return value — the
     * bandwidth is still consumed.
     */
    Cycles transfer(unsigned from, unsigned to, unsigned bytes,
                    Cycles now);

    /** Serialization cycles one message of @p bytes payload occupies a
     *  link for (header included, minimum one cycle). */
    Cycles
    serializationCycles(unsigned bytes) const
    {
        return std::max<std::uint64_t>(
            divCeil(bytes + cfg_.headerBytes, cfg_.linkBytesPerCycle),
            1);
    }

    const MeshConfig &config() const { return cfg_; }

    /** Distribution of per-message hop counts. */
    const stats::Histogram &hopHistogram() const { return hops_; }

    /** Distribution of per-message link-queueing delay (cycles). */
    const stats::Histogram &queueHistogram() const { return queue_; }

    std::uint64_t messages() const { return messages_; }

    /** Mean hops per message (0 when idle). */
    double
    meanHops() const
    {
        return messages_ == 0 ? 0.0
                              : static_cast<double>(hopSum_) /
                                    static_cast<double>(messages_);
    }

    /** Reset counters and link occupancy (end of warm-up rebases every
     *  clock in the system to zero). */
    void clearCounters();

    /** Cumulative serialization cycles charged to directed link @p i
     *  (differencing adjacent epoch samples yields the link's busy
     *  fraction for that epoch). */
    std::uint64_t linkBusyCycles(unsigned i) const
    {
        return linkBusyCycles_[i];
    }

    unsigned numLinks() const
    {
        return static_cast<unsigned>(linkBusy_.size());
    }

    /** Cumulative link-queueing delay over all messages. */
    std::uint64_t queueCycleSum() const { return queueSum_; }

    /**
     * NoC probe catalog: aggregate message/queue counters, the
     * busiest-link cumulative occupancy (hot-spot detector), and — for
     * meshes of up to @p max_per_link_probes links — one busy-cycles
     * counter per directed link ("<prefix>.linkN.busy_cycles"; the
     * per-link series are what the issue's per-link busy fraction is
     * derived from). Larger meshes publish aggregates only, so series
     * counts stay bounded.
     */
    void registerProbes(telemetry::Registry &reg,
                        const std::string &prefix,
                        unsigned max_per_link_probes = 128);

    /** Record NocStall events (queueing >= @p threshold cycles) onto
     *  @p track of @p tracer. */
    void
    attachTracer(telemetry::Tracer *tracer, std::uint16_t track,
                 Cycles threshold)
    {
        tracer_ = tracer;
        traceTrack_ = track;
        stallThreshold_ = threshold;
    }

    /** Append link occupancy and message statistics. */
    void saveState(snap::Serializer &s) const;

    /** Restore state written by saveState(); topology must match. */
    void restoreState(snap::Deserializer &d);

  private:
    /** Directed-link index: 4 outgoing links per tile. */
    enum Dir { East, West, North, South };
    unsigned
    linkIndex(unsigned tile, Dir d) const
    {
        return tile * 4 + static_cast<unsigned>(d);
    }

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    MeshConfig cfg_;
    std::vector<Cycles> linkBusy_;
    std::vector<std::uint64_t> linkBusyCycles_;
    stats::Histogram hops_;
    stats::Histogram queue_;
    std::uint64_t messages_ = 0;
    std::uint64_t hopSum_ = 0;
    std::uint64_t queueSum_ = 0;

    telemetry::Tracer *tracer_ = nullptr; // morc-analyze: allow(snapshot-completeness) runtime wiring, re-bound by the owner
    std::uint16_t traceTrack_ = 0; // morc-analyze: allow(snapshot-completeness) runtime wiring, re-bound by the owner
    Cycles stallThreshold_ = 0; // morc-analyze: allow(snapshot-completeness) configuration, set at wiring time
};

} // namespace mesh
} // namespace morc

#endif // MORC_MESH_NOC_HH
