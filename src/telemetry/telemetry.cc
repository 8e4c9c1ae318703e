#include "telemetry/telemetry.hh"

#include "check/check.hh"

namespace morc {
namespace telemetry {

Registry::Registry(Cycles epoch_cycles, std::size_t max_samples)
    : epochCycles_(epoch_cycles), maxSamples_(max_samples),
      nextBoundary_(epoch_cycles)
{
    MORC_CHECK(epoch_cycles > 0, "telemetry epoch must be positive");
}

void
Registry::add(const std::string &name, ProbeKind kind, ReadFn read)
{
    MORC_CHECK(samples_ == 0,
               "probe '%s' registered after sampling started",
               name.c_str());
    Probe p;
    p.series.name = name;
    p.series.kind = kind;
    p.read = std::move(read);
    probes_.push_back(std::move(p));
}

void
Registry::gauge(const std::string &name, ReadFn read)
{
    add(name, ProbeKind::Gauge, std::move(read));
}

void
Registry::counter(const std::string &name, ReadFn read)
{
    add(name, ProbeKind::Counter, std::move(read));
}

void
Registry::advanceTo(Cycles now)
{
    while (nextBoundary_ <= now) {
        if (samples_ < maxSamples_) {
            for (auto &p : probes_)
                p.series.values.push_back(p.read(nextBoundary_));
            samples_++;
        } else {
            droppedEpochs_++;
        }
        nextBoundary_ += epochCycles_;
    }
}

void
Registry::restart()
{
    for (auto &p : probes_)
        p.series.values.clear();
    samples_ = 0;
    droppedEpochs_ = 0;
    nextBoundary_ = epochCycles_;
}

template <typename Self, typename IO>
void
Registry::walk(Self &self, IO &io)
{
    io.section("TLMR", [&] {
        const char *shape = "telemetry registry shape mismatch (epoch/"
                            "capacity/probe count differ from the live "
                            "configuration)";
        io.expect(self.epochCycles_, shape);
        io.expect(static_cast<std::uint64_t>(self.maxSamples_), shape);
        io.u64(self.nextBoundary_);
        io.u64(self.samples_);
        io.u64(self.droppedEpochs_);
        io.fixedVec(self.probes_, 1, shape, [&](auto &p) {
            Series::walk(p.series, io, false);
        });
    });
}

void
Registry::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Registry::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

SeriesSet
Registry::snapshot() const
{
    SeriesSet out;
    out.epochCycles = epochCycles_;
    out.samples = samples_;
    out.droppedEpochs = droppedEpochs_;
    out.series.reserve(probes_.size());
    for (const auto &p : probes_)
        out.series.push_back(p.series);
    return out;
}

} // namespace telemetry
} // namespace morc
