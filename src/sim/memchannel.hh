/**
 * @file
 * FCFS, bandwidth-capped memory channel (Table 5: FCFS controller,
 * closed-page DDR3-1600).
 *
 * Bandwidth is the first-class constraint of the paper: every 64 B
 * transfer occupies the channel for bytes/bandwidth seconds, and queueing
 * delay emerges from FCFS ordering. A closed-page DRAM access latency is
 * charged on top for reads.
 */

#ifndef MORC_SIM_MEMCHANNEL_HH
#define MORC_SIM_MEMCHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "util/types.hh"

namespace morc {
namespace sim {

/** Shared FCFS channel with a hard bandwidth cap. */
class MemoryChannel
{
  public:
    /**
     * @param bytes_per_sec Sustained bandwidth cap.
     * @param clock_hz      Core clock for cycle conversion.
     * @param access_cycles Closed-page access latency (activate + CAS +
     *                      precharge; ~35 ns at DDR3-1600 9-9-9).
     */
    MemoryChannel(double bytes_per_sec, double clock_hz = 2e9,
                  Cycles access_cycles = 70)
        : cyclesPerByte_(clock_hz / bytes_per_sec),
          accessCycles_(access_cycles)
    {}

    /**
     * A read (fill) at time @p now: queues behind earlier transfers.
     * @return Total latency in cycles until data is delivered.
     */
    Cycles
    readAccess(Cycles now, unsigned bytes = kLineSize)
    {
        const Cycles queued = occupy(now, bytes);
        reads_++;
        return queued + accessCycles_ + occupancyCycles(bytes);
    }

    /**
     * A posted write (write-back): completes asynchronously, so the
     * caller observes no latency, but the channel is occupied exactly
     * as a read of the same size would occupy it — later accesses
     * queue behind the write's data transfer.
     */
    void
    writeAccess(Cycles now, unsigned bytes = kLineSize)
    {
        occupy(now, bytes);
        writes_++;
    }

    /** Reset counters and rebase time (end of warm-up: the cores'
     *  cycle counters restart from zero too). */
    void
    clearCounters()
    {
        reads_ = 0;
        writes_ = 0;
        bytes_ = 0;
        busyUntil_ = 0;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

    /** Total bytes moved (reads and writes both count). */
    std::uint64_t bytesTransferred() const { return bytes_; }

    double cyclesPerByte() const { return cyclesPerByte_; }

    /** Data-transfer cycles a @p bytes transfer holds the channel for. */
    Cycles
    occupancyCycles(unsigned bytes) const
    {
        return static_cast<Cycles>(cyclesPerByte_ * bytes);
    }

    /** First cycle the channel is free again (for tests/telemetry). */
    Cycles busyUntil() const { return busyUntil_; }

    /** Channel probe catalog: read/write/byte counters plus the
     *  queue-depth gauge (cycles of backlog at the sample instant). */
    void
    registerProbes(telemetry::Registry &reg, const std::string &prefix)
    {
        reg.counter(prefix + ".reads",
                    [this](Cycles) { return double(reads_); });
        reg.counter(prefix + ".writes",
                    [this](Cycles) { return double(writes_); });
        reg.counter(prefix + ".bytes",
                    [this](Cycles) { return double(bytes_); });
        reg.gauge(prefix + ".queue_depth_cycles", [this](Cycles now) {
            return busyUntil_ > now ? double(busyUntil_ - now) : 0.0;
        });
    }

    /** Rate fingerprint plus occupancy and counters. */
    void save(snap::Serializer &s) const { walk(*this, s); }

    /** Restore into a channel built with the same bandwidth/latency. */
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        const char *timing = "memory channel timing mismatch";
        io.expect(self.cyclesPerByte_, timing);
        io.expect(self.accessCycles_, timing);
        io.u64(self.busyUntil_);
        io.u64(self.reads_);
        io.u64(self.writes_);
        io.u64(self.bytes_);
    }

    /** FCFS-claim the channel for one transfer; returns the queueing
     *  delay. Shared by reads and writes so their occupancy can never
     *  drift apart. */
    Cycles
    occupy(Cycles now, unsigned bytes)
    {
        const Cycles start = std::max(now, busyUntil_);
        busyUntil_ = start + occupancyCycles(bytes);
        bytes_ += bytes;
        return start - now;
    }

    double cyclesPerByte_;
    Cycles accessCycles_;
    Cycles busyUntil_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace sim
} // namespace morc

#endif // MORC_SIM_MEMCHANNEL_HH
