#include "kv/tier.hh"

#include <algorithm>

#include "check/check.hh"
#include "compress/fpc.hh"

namespace morc {
namespace kv {

const char *
tierLevelName(TierLevel l)
{
    switch (l) {
    case TierLevel::Dram:
        return "dram";
    case TierLevel::Ssd:
        return "ssd";
    case TierLevel::Origin:
        return "origin";
    }
    return "?";
}

template <typename Self, typename IO>
void
TierStats::walk(Self &self, IO &io)
{
    io.u64(self.dramHits);
    io.u64(self.ssdHits);
    io.u64(self.originFetches);
    io.u64(self.promotions);
    io.u64(self.demotions);
    io.u64(self.ssdDrops);
    io.u64(self.writebacks);
}

void
TierStats::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
TierStats::restore(snap::Deserializer &d)
{
    walk(*this, d);
}

namespace {

/** Bytes one entry charges against a tier's budget. */
std::uint64_t
charge(bool tier_compressed, std::uint32_t comp_bytes)
{
    return tier_compressed ? comp_bytes : kLineSize;
}

} // namespace

TieredStore::TieredStore(const TierConfig &cfg) : cfg_(cfg)
{
    MORC_CHECK(cfg.dramBytes >= kLineSize && cfg.ssdBytes >= kLineSize,
               "tier budgets must hold at least one line");
}

std::uint32_t
TieredStore::storedBytes(const CacheLine &data, bool) const
{
    const std::uint32_t bits = comp::Fpc::lineBits(data);
    return std::min<std::uint32_t>(
        kLineSize, std::max<std::uint32_t>(1, (bits + 7) / 8));
}

void
TieredStore::touch(Tier &t, Addr addr, Entry &e)
{
    t.lru.erase(e.use);
    e.use = ++useClock_;
    t.lru[e.use] = addr;
}

void
TieredStore::insertInto(Tier &t, std::uint64_t budget, Addr addr,
                        Entry e, bool demote_victims_to_ssd)
{
    const bool compressed =
        demote_victims_to_ssd ? cfg_.dramCompressed : cfg_.ssdCompressed;
    MORC_CHECK(t.lines.find(addr) == t.lines.end(),
               "tier insert of resident line %llx",
               static_cast<unsigned long long>(addr));
    e.use = ++useClock_;
    t.lines[addr] = e;
    t.lru[e.use] = addr;
    t.usedBytes += charge(compressed, e.bytes);
    evictOver(t, budget, demote_victims_to_ssd);
}

void
TieredStore::evictOver(Tier &t, std::uint64_t budget,
                       bool demote_victims_to_ssd)
{
    const bool compressed =
        demote_victims_to_ssd ? cfg_.dramCompressed : cfg_.ssdCompressed;
    while (t.usedBytes > budget && !t.lru.empty()) {
        const auto victim = t.lru.begin();
        const Addr va = victim->second;
        const Entry ve = t.lines[va];
        t.lru.erase(victim);
        t.lines.erase(va);
        t.usedBytes -= charge(compressed, ve.bytes);
        if (demote_victims_to_ssd) {
            stats_.demotions++;
            insertInto(ssd_, cfg_.ssdBytes, va, ve, false);
        } else {
            stats_.ssdDrops++;
        }
    }
}

TieredStore::FetchResult
TieredStore::fetch(Addr addr, const CacheLine &data)
{
    const auto it = dram_.lines.find(addr);
    if (it != dram_.lines.end()) {
        touch(dram_, addr, it->second);
        stats_.dramHits++;
        return {cfg_.dramLatency, TierLevel::Dram};
    }
    const auto is = ssd_.lines.find(addr);
    if (is != ssd_.lines.end()) {
        // Exclusive promotion: move the line up, drop the SSD copy.
        const Entry e = is->second;
        ssd_.lru.erase(e.use);
        ssd_.usedBytes -= charge(cfg_.ssdCompressed, e.bytes);
        ssd_.lines.erase(is);
        stats_.ssdHits++;
        stats_.promotions++;
        insertInto(dram_, cfg_.dramBytes, addr, e, true);
        return {cfg_.ssdLatency, TierLevel::Ssd};
    }
    stats_.originFetches++;
    Entry e;
    e.bytes = storedBytes(data, cfg_.dramCompressed);
    insertInto(dram_, cfg_.dramBytes, addr, e, true);
    return {cfg_.originLatency, TierLevel::Origin};
}

void
TieredStore::writeback(Addr addr, const CacheLine &data)
{
    stats_.writebacks++;
    const std::uint32_t bytes = storedBytes(data, true);
    const auto it = dram_.lines.find(addr);
    if (it != dram_.lines.end()) {
        dram_.usedBytes -= charge(cfg_.dramCompressed, it->second.bytes);
        it->second.bytes = bytes;
        dram_.usedBytes += charge(cfg_.dramCompressed, bytes);
        touch(dram_, addr, it->second);
        // The rewrite may compress worse than what it replaced; the
        // budget still holds (the line itself is MRU, so it survives).
        evictOver(dram_, cfg_.dramBytes, true);
        return;
    }
    const auto is = ssd_.lines.find(addr);
    if (is != ssd_.lines.end()) {
        ssd_.usedBytes -= charge(cfg_.ssdCompressed, is->second.bytes);
        is->second.bytes = bytes;
        ssd_.usedBytes += charge(cfg_.ssdCompressed, bytes);
        touch(ssd_, addr, is->second);
        evictOver(ssd_, cfg_.ssdBytes, false);
        return;
    }
    Entry e;
    e.bytes = bytes;
    insertInto(dram_, cfg_.dramBytes, addr, e, true);
}

void
TieredStore::auditTier(check::AuditReport &r, const Tier &t,
                       const char *name, std::uint64_t budget) const
{
    const bool compressed =
        &t == &dram_ ? cfg_.dramCompressed : cfg_.ssdCompressed;
    std::uint64_t bytes = 0;
    for (const auto &kv : t.lines) {
        bytes += charge(compressed, kv.second.bytes);
        r.require(kv.second.bytes >= 1 && kv.second.bytes <= kLineSize,
                  "%s line %llx stored size %u outside [1,64]", name,
                  static_cast<unsigned long long>(kv.first),
                  kv.second.bytes);
        const auto lru = t.lru.find(kv.second.use);
        r.require(lru != t.lru.end() && lru->second == kv.first,
                  "%s line %llx LRU stamp %llu dangling", name,
                  static_cast<unsigned long long>(kv.first),
                  static_cast<unsigned long long>(kv.second.use));
    }
    r.require(bytes == t.usedBytes,
              "%s byte accounting: walked %llu != tracked %llu", name,
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(t.usedBytes));
    r.require(t.lru.size() == t.lines.size(),
              "%s LRU index size %zu != line count %zu", name,
              t.lru.size(), t.lines.size());
    r.require(t.usedBytes <= budget,
              "%s over budget: %llu > %llu", name,
              static_cast<unsigned long long>(t.usedBytes),
              static_cast<unsigned long long>(budget));
}

check::AuditReport
TieredStore::audit() const
{
    check::AuditReport r;
    auditTier(r, dram_, "dram", cfg_.dramBytes);
    auditTier(r, ssd_, "ssd", cfg_.ssdBytes);
    for (const auto &kv : dram_.lines) {
        r.require(ssd_.lines.find(kv.first) == ssd_.lines.end(),
                  "line %llx resident in both tiers",
                  static_cast<unsigned long long>(kv.first));
    }
    return r;
}

void
TieredStore::registerProbes(telemetry::Registry &reg,
                            const std::string &prefix)
{
    reg.gauge(prefix + ".dram_lines",
              [this](Cycles) { return double(dram_.lines.size()); });
    reg.gauge(prefix + ".ssd_lines",
              [this](Cycles) { return double(ssd_.lines.size()); });
    reg.gauge(prefix + ".dram_bytes",
              [this](Cycles) { return double(dram_.usedBytes); });
    reg.gauge(prefix + ".ssd_bytes",
              [this](Cycles) { return double(ssd_.usedBytes); });
    reg.counter(prefix + ".dram_hits",
                [this](Cycles) { return double(stats_.dramHits); });
    reg.counter(prefix + ".ssd_hits",
                [this](Cycles) { return double(stats_.ssdHits); });
    reg.counter(prefix + ".origin_fetches", [this](Cycles) {
        return double(stats_.originFetches);
    });
    reg.counter(prefix + ".promotions",
                [this](Cycles) { return double(stats_.promotions); });
    reg.counter(prefix + ".demotions",
                [this](Cycles) { return double(stats_.demotions); });
}

template <typename Self, typename IO>
void
TieredStore::walk(Self &self, IO &io)
{
    io.section("KVTS", [&] {
        io.u64(self.useClock_);
        io.part(self.stats_);
        for (auto *t : {&self.dram_, &self.ssd_}) {
            io.sortedMap(t->lines, 8 + 4 + 8, [&](auto &addr, auto &e) {
                io.u64(addr);
                io.u32(e.bytes);
                io.u64(e.use);
            });
        }
    });
}

void
TieredStore::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
TieredStore::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
    if (!d.ok())
        return;
    // Each tier's LRU index and byte total derive from its lines.
    for (Tier *t : {&dram_, &ssd_}) {
        const bool compressed =
            t == &dram_ ? cfg_.dramCompressed : cfg_.ssdCompressed;
        t->lru.clear();
        t->usedBytes = 0;
        for (const auto &[addr, e] : t->lines) {
            if (!t->lru.emplace(e.use, addr).second) {
                d.fail("kv tier snapshot: duplicate LRU stamp");
                return;
            }
            t->usedBytes += charge(compressed, e.bytes);
        }
    }
}

} // namespace kv
} // namespace morc
