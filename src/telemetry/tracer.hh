/**
 * @file
 * Cycle-stamped structured event tracer.
 *
 * Components record fixed-shape events (a kind tag plus two integer
 * arguments) onto a flight-recorder ring buffer: when the buffer is
 * full the *oldest* events are overwritten and counted as dropped, so
 * a bounded trace always holds the most recent window. Every event is
 * stamped with the simulated cycle of the core being stepped — the
 * tracer never reads a host clock — and events land on named tracks
 * (one per component lane: "llc", "bank3", "noc", "sys"), which become
 * Perfetto threads in the Chrome trace-event export.
 *
 * Like the probe Registry, a Tracer belongs to one simulated system
 * and is not thread-safe; determinism follows from the event stream
 * being a pure function of the simulation.
 */

#ifndef MORC_TELEMETRY_TRACER_HH
#define MORC_TELEMETRY_TRACER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/types.hh"

namespace morc {
namespace telemetry {

/** Structured event kinds (names via eventName()). */
enum class EventKind : std::uint8_t
{
    LogFlush,        //< MORC whole-log eviction: a0=log, a1=valid lines
    LogReuse,        //< all-invalid log reused without a flush: a0=log
    FudgeNearTie,    //< near-tie commit to the least-used log:
                     //  a0=log, a1=margin bits (worst - best)
    LmtConflictEvict,//< LMT conflict eviction: a0=slot, a1=line number
    WritebackBurst,  //< one insert surfaced a0 >= threshold writebacks
    NocStall,        //< message queued a1 >= threshold cycles at link a0
};

/** Stable lower_snake_case name of @p kind (trace "name" field). */
const char *eventName(EventKind kind);

/** One recorded event. */
struct Event
{
    Cycles cycles = 0;
    EventKind kind = EventKind::LogFlush;
    std::uint16_t track = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;

    /** Snapshot walk (see snapshot/snapshot.hh); on load the kind must
     *  be known and the track one of @p num_tracks. */
    template <typename Self, typename IO>
    static void
    walk(Self &e, IO &io, std::uint64_t num_tracks)
    {
        io.u64(e.cycles);
        io.u8(e.kind, static_cast<std::uint64_t>(EventKind::NocStall) + 1,
              "trace event kind out of range");
        io.u16(e.track, num_tracks, "trace event track out of range");
        io.u64(e.a0);
        io.u64(e.a1);
    }
};

/** Snapshot of a Tracer: tracks + events oldest-first. */
struct TraceBuffer
{
    std::vector<std::string> tracks;
    std::vector<Event> events;

    /** Events overwritten by ring wrap-around (oldest lost first). */
    std::uint64_t dropped = 0;

    bool empty() const { return events.empty() && dropped == 0; }

    /** Events of @p kind currently in the buffer. */
    std::uint64_t countKind(EventKind kind) const;
};

/** Ring-buffered event recorder. */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    /** Register (or look up) the track named @p name. */
    std::uint16_t track(const std::string &name);

    /**
     * Set the current simulated cycle. The driver stamps time before
     * handing control to components (which know no clock); events
     * recorded until the next call carry this cycle.
     */
    void setNow(Cycles now) { now_ = now; }
    Cycles now() const { return now_; }

    void
    record(EventKind kind, std::uint16_t track, std::uint64_t a0 = 0,
           std::uint64_t a1 = 0)
    {
        Event e;
        e.cycles = now_;
        e.kind = kind;
        e.track = track;
        e.a0 = a0;
        e.a1 = a1;
        push(e);
    }

    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }
    std::size_t capacity() const { return capacity_; }

    /** Drop buffered events and the drop count; tracks and the current
     *  cycle stamp are kept (end-of-warm-up rebase). */
    void clear();

    /** Copy out tracks + events, oldest first. */
    TraceBuffer snapshot() const;

    /** Append ring contents, counters, tracks, and the cycle stamp. */
    void saveState(snap::Serializer &s) const;

    /** Restore; the live tracer must have the same capacity and the
     *  same registered tracks (components re-register on construction). */
    void restoreState(snap::Deserializer &d);

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    void push(const Event &e);

    std::size_t capacity_;
    std::vector<Event> ring_;
    std::size_t head_ = 0; // next write slot once the ring is full
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    Cycles now_ = 0;
    std::vector<std::string> tracks_;
};

/**
 * Chrome trace-event JSON (the "JSON Array Format" wrapped in
 * {"traceEvents": [...]}) for one or more runs, loadable in Perfetto
 * and chrome://tracing.
 *
 * Each (run name, buffer) pair becomes one process (pid = its position
 * + 1, named after the run via process_name metadata); each track
 * becomes a thread. Events are instants ("ph": "i", thread scope) with
 * ts = the simulated cycle (the exported unit is 1 us per cycle, which
 * viewers only use for display scaling). Output is deterministic:
 * iteration order is run order, then ring order.
 */
std::string chromeTraceJson(
    const std::vector<std::pair<std::string, TraceBuffer>> &runs);

} // namespace telemetry
} // namespace morc

#endif // MORC_TELEMETRY_TRACER_HH
