#include "telemetry/tracer.hh"

#include "check/check.hh"

namespace morc {
namespace telemetry {

const char *
eventName(EventKind kind)
{
    switch (kind) {
      case EventKind::LogFlush: return "log_flush";
      case EventKind::LogReuse: return "log_reuse";
      case EventKind::FudgeNearTie: return "fudge_near_tie";
      case EventKind::LmtConflictEvict: return "lmt_conflict_evict";
      case EventKind::WritebackBurst: return "writeback_burst";
      case EventKind::NocStall: return "noc_stall";
    }
    return "unknown";
}

namespace {

/** Argument field names per kind (a0, a1), for readable traces. */
void
argNames(EventKind kind, const char **a0, const char **a1)
{
    switch (kind) {
      case EventKind::LogFlush:
        *a0 = "log"; *a1 = "valid_lines"; return;
      case EventKind::LogReuse:
        *a0 = "log"; *a1 = "lines"; return;
      case EventKind::FudgeNearTie:
        *a0 = "log"; *a1 = "margin_bits"; return;
      case EventKind::LmtConflictEvict:
        *a0 = "slot"; *a1 = "line"; return;
      case EventKind::WritebackBurst:
        *a0 = "writebacks"; *a1 = "lines_flushed"; return;
      case EventKind::NocStall:
        *a0 = "link"; *a1 = "queued_cycles"; return;
    }
    *a0 = "a0";
    *a1 = "a1";
}

} // namespace

std::uint64_t
TraceBuffer::countKind(EventKind kind) const
{
    std::uint64_t n = 0;
    for (const auto &e : events)
        n += e.kind == kind ? 1 : 0;
    return n;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    MORC_CHECK(capacity > 0, "tracer capacity must be positive");
    ring_.reserve(capacity < 4096 ? capacity : 4096);
}

std::uint16_t
Tracer::track(const std::string &name)
{
    for (std::size_t i = 0; i < tracks_.size(); i++) {
        if (tracks_[i] == name)
            return static_cast<std::uint16_t>(i);
    }
    tracks_.push_back(name);
    return static_cast<std::uint16_t>(tracks_.size() - 1);
}

void
Tracer::push(const Event &e)
{
    recorded_++;
    if (ring_.size() < capacity_) {
        ring_.push_back(e);
        return;
    }
    // Flight-recorder wrap: overwrite the oldest event.
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    dropped_++;
}

void
Tracer::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
}

template <typename Self, typename IO>
void
Tracer::walk(Self &self, IO &io)
{
    io.section("TLMT", [&] {
        const char *shape = "tracer shape mismatch (capacity or "
                            "registered tracks differ from the live "
                            "configuration)";
        io.expect(static_cast<std::uint64_t>(self.capacity_), shape);
        io.u64(self.head_);
        io.u64(self.recorded_);
        io.u64(self.dropped_);
        io.u64(self.now_);
        io.expect(self.tracks_, shape);
        io.vec(self.ring_, 8 + 1 + 2 + 8 + 8, [&](auto &e) {
            Event::walk(e, io, self.tracks_.size());
        });
        io.check(self.ring_.size() <= self.capacity_ &&
                     self.head_ < (self.ring_.size() == self.capacity_
                                       ? self.capacity_
                                       : 1),
                 "tracer ring/head out of range");
    });
}

void
Tracer::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Tracer::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

TraceBuffer
Tracer::snapshot() const
{
    TraceBuffer out;
    out.tracks = tracks_;
    out.dropped = dropped_;
    out.events.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); i++)
        out.events.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::string
chromeTraceJson(
    const std::vector<std::pair<std::string, TraceBuffer>> &runs)
{
    std::string out;
    out.reserve(1024 + runs.size() * 4096);
    out += "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string &obj) {
        if (!first)
            out += ",\n";
        else
            out += "\n";
        out += obj;
        first = false;
    };
    for (std::size_t r = 0; r < runs.size(); r++) {
        const std::string pid = std::to_string(r + 1);
        const TraceBuffer &buf = runs[r].second;
        emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
             ",\"tid\":0,\"args\":{\"name\":\"" + runs[r].first +
             "\"}}");
        for (std::size_t t = 0; t < buf.tracks.size(); t++) {
            emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                 pid + ",\"tid\":" + std::to_string(t + 1) +
                 ",\"args\":{\"name\":\"" + buf.tracks[t] + "\"}}");
        }
        for (const auto &e : buf.events) {
            const char *n0;
            const char *n1;
            argNames(e.kind, &n0, &n1);
            std::string obj = "{\"name\":\"";
            obj += eventName(e.kind);
            obj += "\",\"cat\":\"morc\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            obj += std::to_string(e.cycles);
            obj += ",\"pid\":" + pid;
            obj += ",\"tid\":" + std::to_string(e.track + 1);
            obj += ",\"args\":{\"";
            obj += n0;
            obj += "\":" + std::to_string(e.a0) + ",\"";
            obj += n1;
            obj += "\":" + std::to_string(e.a1) + "}}";
            emit(obj);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

} // namespace telemetry
} // namespace morc
