#include "mesh/banked_llc.hh"

#include "check/check.hh"
#include "core/morc.hh"

namespace morc {
namespace mesh {

BankedLlc::BankedLlc(const MeshConfig &mesh,
                     std::uint64_t total_capacity,
                     const BankFactory &make_bank)
    : mesh_(mesh)
{
    mesh_.validate();
    const unsigned n = mesh_.tiles();
    MORC_CHECK(total_capacity % n == 0,
               "LLC capacity %llu B does not shard evenly over %u banks",
               static_cast<unsigned long long>(total_capacity), n);
    const std::uint64_t per_bank = total_capacity / n;
    MORC_CHECK(per_bank >= kLineSize,
               "bank slice of %llu B cannot hold a line",
               static_cast<unsigned long long>(per_bank));
    banks_.reserve(n);
    for (unsigned b = 0; b < n; b++) {
        banks_.push_back(make_bank(b, per_bank));
        MORC_CHECK(banks_.back() != nullptr, "bank factory returned "
                                             "null for bank %u",
                   b);
    }
}

cache::ReadResult
BankedLlc::read(Addr addr)
{
    cache::Llc &b = *banks_[mesh_.homeBank(addr)];
    const cache::LlcStats before = b.stats();
    cache::ReadResult rr = b.read(addr);
    stats_ += b.stats() - before;
    return rr;
}

cache::FillResult
BankedLlc::insert(Addr addr, const CacheLine &data, bool dirty)
{
    cache::Llc &b = *banks_[mesh_.homeBank(addr)];
    const cache::LlcStats before = b.stats();
    cache::FillResult fr = b.insert(addr, data, dirty);
    stats_ += b.stats() - before;
    return fr;
}

std::uint64_t
BankedLlc::validLines() const
{
    std::uint64_t sum = 0;
    for (const auto &b : banks_)
        sum += b->validLines();
    return sum;
}

std::uint64_t
BankedLlc::capacityBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &b : banks_)
        sum += b->capacityBytes();
    return sum;
}

std::string
BankedLlc::name() const
{
    return "Banked[" + std::to_string(banks_.size()) + "x" +
           banks_.front()->name() + "]";
}

check::AuditReport
BankedLlc::audit() const
{
    check::AuditReport rep;
    const std::uint64_t per_bank = banks_.front()->capacityBytes();
    rep.require(banks_.size() == mesh_.tiles(),
                "director holds %zu banks for a %u-tile mesh",
                banks_.size(), mesh_.tiles());
    for (std::size_t b = 0; b < banks_.size(); b++) {
        rep.require(banks_[b]->capacityBytes() == per_bank,
                    "bank %zu capacity %llu B breaks the even "
                    "partition (bank 0 has %llu B)",
                    b,
                    static_cast<unsigned long long>(
                        banks_[b]->capacityBytes()),
                    static_cast<unsigned long long>(per_bank));
        rep.merge(banks_[b]->audit(),
                  "bank" + std::to_string(b) + ": ");
    }
    return rep;
}

void
BankedLlc::registerProbes(telemetry::Registry &reg,
                          const std::string &prefix)
{
    // Base catalog against the director's stats_, which accumulates
    // per-access deltas from every bank (see read()/insert()).
    cache::Llc::registerProbes(reg, prefix);
    bool morc_banks = false;
    for (const auto &b : banks_)
        morc_banks |= dynamic_cast<core::LogCache *>(b.get()) != nullptr;
    if (!morc_banks)
        return;
    const auto sum_over =
        [this](double (*f)(const core::LogCache &)) {
            double sum = 0.0;
            for (const auto &b : banks_) {
                if (auto *lc =
                        dynamic_cast<const core::LogCache *>(b.get()))
                    sum += f(*lc);
            }
            return sum;
        };
    reg.gauge(prefix + ".live_logs", [sum_over](Cycles) {
        return sum_over([](const core::LogCache &lc) {
            return double(lc.liveLogs());
        });
    });
    reg.gauge(prefix + ".all_invalid_logs", [sum_over](Cycles) {
        return sum_over([](const core::LogCache &lc) {
            return double(lc.allInvalidLogs());
        });
    });
    // Occupancy and fill are means over banks, not sums.
    const double n = static_cast<double>(banks_.size());
    reg.gauge(prefix + ".lmt_occupancy", [sum_over, n](Cycles) {
        return sum_over([](const core::LogCache &lc) {
                   return lc.lmtOccupancy();
               }) /
               n;
    });
    reg.gauge(prefix + ".active_fill_ratio", [sum_over, n](Cycles) {
        return sum_over([](const core::LogCache &lc) {
                   return lc.activeFillRatio();
               }) /
               n;
    });
    reg.gauge(prefix + ".compressed_bytes", [sum_over](Cycles) {
        return sum_over([](const core::LogCache &lc) {
            return double(lc.compressedBytesResident());
        });
    });
    reg.counter(prefix + ".log_flushes", [this](Cycles) {
        return double(stats_.logFlushes);
    });
    reg.counter(prefix + ".log_reuses", [this](Cycles) {
        return double(stats_.logReuses);
    });
    reg.counter(prefix + ".lmt_conflict_evicts", [this](Cycles) {
        return double(stats_.lmtConflictEvicts);
    });
}

void
BankedLlc::attachTracer(telemetry::Tracer *tracer, std::uint16_t track)
{
    cache::Llc::attachTracer(tracer, track);
    for (std::size_t b = 0; b < banks_.size(); b++) {
        banks_[b]->attachTracer(
            tracer,
            tracer ? tracer->track("bank" + std::to_string(b)) : 0);
    }
}

void
BankedLlc::clearAllStats()
{
    stats_.clear();
    for (auto &b : banks_) {
        b->stats().clear();
        b->clearWear();
    }
    wear_.clearCounts();
}

energy::WearTracker
BankedLlc::wearSnapshot() const
{
    energy::WearTracker merged;
    for (const auto &b : banks_)
        merged.merge(b->wearSnapshot());
    return merged;
}

void
BankedLlc::clearWear()
{
    for (auto &b : banks_)
        b->clearWear();
    wear_.clearCounts();
}

double
BankedLlc::invalidLineFraction() const
{
    double sum = 0.0;
    unsigned n = 0;
    for (const auto &b : banks_) {
        if (auto *lc = dynamic_cast<const core::LogCache *>(b.get())) {
            sum += lc->invalidLineFraction();
            n++;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

bool
BankedLlc::debugCorruptLmt(std::uint64_t seed)
{
    const unsigned n = numBanks();
    for (unsigned i = 0; i < n; i++) {
        const unsigned b = static_cast<unsigned>((seed + i) % n);
        if (auto *lc = dynamic_cast<core::LogCache *>(banks_[b].get())) {
            if (lc->debugCorruptLmt(seed))
                return true;
        }
    }
    return false;
}

template <typename Self, typename IO>
void
BankedLlc::walk(Self &self, IO &io)
{
    io.section("BLLC", [&] {
        const char *topology = "banked LLC topology mismatch";
        io.expect(self.mesh_.width, topology);
        io.expect(self.mesh_.height, topology);
        io.expect(static_cast<std::uint32_t>(self.banks_.size()), topology);
        io.part(self.stats_);
        for (auto &b : self.banks_)
            io.part(*b);
    });
}

void
BankedLlc::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
BankedLlc::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace mesh
} // namespace morc
