#include "mesh/noc.hh"

#include <algorithm>

#include "check/check.hh"

namespace morc {
namespace mesh {

namespace {

/** Fixed histogram bucketing keeps reports comparable across mesh
 *  sizes (and byte-identical across thread counts). */
const std::vector<std::uint64_t> kHopBounds = {0, 1, 2, 4, 8, 16, 32};
const std::vector<std::uint64_t> kQueueBounds = {0,  2,   8,   32,
                                                 128, 512, 2048};

} // namespace

Noc::Noc(const MeshConfig &cfg)
    : cfg_(cfg), linkBusy_(static_cast<std::size_t>(cfg.tiles()) * 4, 0),
      linkBusyCycles_(linkBusy_.size(), 0), hops_(kHopBounds),
      queue_(kQueueBounds)
{
    cfg_.validate();
}

Cycles
Noc::transfer(unsigned from, unsigned to, unsigned bytes, Cycles now)
{
    MORC_CHECK(from < cfg_.tiles() && to < cfg_.tiles(),
               "transfer %u -> %u outside %ux%u mesh", from, to,
               cfg_.width, cfg_.height);
    messages_++;
    if (from == to) {
        hops_.record(0);
        queue_.record(0);
        return 0;
    }

    const Cycles ser = serializationCycles(bytes);
    unsigned x = cfg_.tileX(from);
    unsigned y = cfg_.tileY(from);
    const unsigned tx = cfg_.tileX(to);
    const unsigned ty = cfg_.tileY(to);
    Cycles head = now;
    Cycles queued = 0;
    unsigned nhops = 0;
    while (x != tx || y != ty) {
        Dir d;
        if (x != tx)
            d = x < tx ? East : West;
        else
            d = y < ty ? South : North;
        const unsigned link = linkIndex(cfg_.tileAt(x, y), d);
        const Cycles start = std::max(head, linkBusy_[link]);
        if (tracer_ && start - head >= stallThreshold_ &&
            stallThreshold_ > 0) {
            tracer_->record(telemetry::EventKind::NocStall, traceTrack_,
                            link, start - head);
        }
        queued += start - head;
        linkBusy_[link] = start + ser;
        linkBusyCycles_[link] += ser;
        head = start + cfg_.hopCycles;
        switch (d) {
          case East: x++; break;
          case West: x--; break;
          case South: y++; break;
          case North: y--; break;
        }
        nhops++;
    }
    hops_.record(nhops);
    queue_.record(queued);
    hopSum_ += nhops;
    queueSum_ += queued;
    // Head-flit pipeline latency plus the tail draining over the last
    // link.
    return (head - now) + ser;
}

void
Noc::clearCounters()
{
    std::fill(linkBusy_.begin(), linkBusy_.end(), 0);
    std::fill(linkBusyCycles_.begin(), linkBusyCycles_.end(), 0);
    hops_.clear();
    queue_.clear();
    messages_ = 0;
    hopSum_ = 0;
    queueSum_ = 0;
}

void
Noc::registerProbes(telemetry::Registry &reg, const std::string &prefix,
                    unsigned max_per_link_probes)
{
    reg.counter(prefix + ".messages",
                [this](Cycles) { return double(messages_); });
    reg.counter(prefix + ".queue_cycles",
                [this](Cycles) { return double(queueSum_); });
    reg.counter(prefix + ".max_link_busy_cycles", [this](Cycles) {
        std::uint64_t m = 0;
        for (const std::uint64_t b : linkBusyCycles_)
            m = std::max(m, b);
        return double(m);
    });
    reg.gauge(prefix + ".links_busy", [this](Cycles now) {
        std::uint64_t n = 0;
        for (const Cycles b : linkBusy_)
            n += b > now ? 1 : 0;
        return double(n);
    });
    if (linkBusyCycles_.size() > max_per_link_probes)
        return;
    for (unsigned i = 0; i < linkBusyCycles_.size(); i++) {
        reg.counter(prefix + ".link" + std::to_string(i) +
                        ".busy_cycles",
                    [this, i](Cycles) {
                        return double(linkBusyCycles_[i]);
                    });
    }
}

template <typename Self, typename IO>
void
Noc::walk(Self &self, IO &io)
{
    io.section("NOC ", [&] {
        const char *topology = "NoC topology mismatch";
        io.expect(self.cfg_.width, topology);
        io.expect(self.cfg_.height, topology);
        io.fixedVec(self.linkBusy_, 8, topology,
                    [&](auto &b) { io.u64(b); });
        io.fixedVec(self.linkBusyCycles_, 8, topology,
                    [&](auto &c) { io.u64(c); });
        io.part(self.hops_);
        io.part(self.queue_);
        io.u64(self.messages_);
        io.u64(self.hopSum_);
        io.u64(self.queueSum_);
    });
}

void
Noc::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Noc::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace mesh
} // namespace morc
