#include "kv/tier.hh"

#include <algorithm>
#include <bit>

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

// ---------------------------------------------------------------------
// Tier: slab, LRU list, index
// ---------------------------------------------------------------------

std::size_t
TieredStore::Tier::home(Addr addr) const
{
    // Fibonacci hashing: the product's top bits pick the bucket.
    const unsigned bits = std::countr_zero(index.size());
    return static_cast<std::size_t>((addr * 0x9e3779b97f4a7c15ull) >>
                                    (64 - bits));
}

std::uint32_t
TieredStore::Tier::find(Addr addr) const
{
    if (index.empty())
        return kNil;
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = home(addr);; i = (i + 1) & mask) {
        const Bucket &b = index[i];
        if (b.slot == kNil || b.addr == addr)
            return b.slot;
    }
}

void
TieredStore::Tier::growIndex()
{
    std::vector<Bucket> old(std::max<std::size_t>(16, 2 * index.size()));
    old.swap(index);
    const std::size_t mask = index.size() - 1;
    for (const Bucket &b : old) {
        if (b.slot == kNil)
            continue;
        std::size_t i = home(b.addr);
        while (index[i].slot != kNil)
            i = (i + 1) & mask;
        index[i] = b;
    }
}

void
TieredStore::Tier::link(std::uint32_t slot)
{
    Entry &e = slab[slot];
    e.prev = tail;
    e.next = kNil;
    if (tail == kNil)
        head = slot;
    else
        slab[tail].next = slot;
    tail = slot;
}

void
TieredStore::Tier::unlink(std::uint32_t slot)
{
    const Entry &e = slab[slot];
    if (e.prev == kNil)
        head = e.next;
    else
        slab[e.prev].next = e.next;
    if (e.next == kNil)
        tail = e.prev;
    else
        slab[e.next].prev = e.prev;
}

void
TieredStore::Tier::add(Addr addr, std::uint32_t bytes, std::uint64_t use)
{
    // Keep the index at most three quarters full.
    if (4 * (lines + 1) > 3 * index.size())
        growIndex();
    std::uint32_t slot = freeHead;
    if (slot != kNil) {
        freeHead = slab[slot].next;
    } else {
        MORC_CHECK(slab.size() < kNil, "tier slab is full");
        slot = static_cast<std::uint32_t>(slab.size());
        slab.emplace_back();
    }
    Entry &e = slab[slot];
    e.addr = addr;
    e.bytes = bytes;
    e.use = use;
    link(slot);

    const std::size_t mask = index.size() - 1;
    std::size_t i = home(addr);
    while (index[i].slot != kNil)
        i = (i + 1) & mask;
    index[i] = {addr, slot};
    lines++;
}

void
TieredStore::Tier::remove(std::uint32_t slot)
{
    const std::size_t mask = index.size() - 1;
    std::size_t hole = home(slab[slot].addr);
    while (index[hole].slot != slot)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later bucket of the probe run
    // into the hole unless its home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; index[j].slot != kNil;
         j = (j + 1) & mask) {
        const std::size_t k = home(index[j].addr);
        const bool stays = hole < j ? (hole < k && k <= j)
                                    : (hole < k || k <= j);
        if (stays)
            continue;
        index[hole] = index[j];
        hole = j;
    }
    index[hole].slot = kNil;

    unlink(slot);
    slab[slot].next = freeHead;
    freeHead = slot;
    lines--;
}

void
TieredStore::Tier::moveToTail(std::uint32_t slot)
{
    if (slot == tail)
        return;
    unlink(slot);
    link(slot);
}

// ---------------------------------------------------------------------
// Placement policy
// ---------------------------------------------------------------------

std::uint32_t
TieredStore::storedBytes(const CacheLine &data) const
{
    const std::uint32_t bits = comp::Fpc::lineBits(data);
    return std::min<std::uint32_t>(
        kLineSize, std::max<std::uint32_t>(1, (bits + 7) / 8));
}

void
TieredStore::touch(Tier &t, std::uint32_t slot)
{
    t.slab[slot].use = ++useClock_;
    t.moveToTail(slot);
}

void
TieredStore::insertInto(Tier &t, std::uint64_t budget, Addr addr,
                        std::uint32_t bytes, bool demote_victims_to_ssd)
{
    const bool compressed =
        demote_victims_to_ssd ? cfg_.dramCompressed : cfg_.ssdCompressed;
    MORC_CHECK(t.find(addr) == kNil, "tier insert of resident line %llx",
               static_cast<unsigned long long>(addr));
    t.add(addr, bytes, ++useClock_);
    t.usedBytes += charge(compressed, bytes);
    evictOver(t, budget, demote_victims_to_ssd);
}

void
TieredStore::evictOver(Tier &t, std::uint64_t budget,
                       bool demote_victims_to_ssd)
{
    const bool compressed =
        demote_victims_to_ssd ? cfg_.dramCompressed : cfg_.ssdCompressed;
    while (t.usedBytes > budget && t.head != kNil) {
        const Entry victim = t.slab[t.head];
        t.remove(t.head);
        t.usedBytes -= charge(compressed, victim.bytes);
        if (demote_victims_to_ssd) {
            stats_.demotions++;
            insertInto(ssd_, cfg_.ssdBytes, victim.addr, victim.bytes,
                       false);
        } else {
            stats_.ssdDrops++;
        }
    }
}

TieredStore::FetchResult
TieredStore::fetch(Addr addr, const CacheLine &data)
{
    const std::uint32_t ds = dram_.find(addr);
    if (ds != kNil) {
        touch(dram_, ds);
        stats_.dramHits++;
        return {cfg_.dramLatency, TierLevel::Dram};
    }
    const std::uint32_t ss = ssd_.find(addr);
    if (ss != kNil) {
        // Exclusive promotion: move the line up, drop the SSD copy.
        const std::uint32_t bytes = ssd_.slab[ss].bytes;
        ssd_.remove(ss);
        ssd_.usedBytes -= charge(cfg_.ssdCompressed, bytes);
        stats_.ssdHits++;
        stats_.promotions++;
        insertInto(dram_, cfg_.dramBytes, addr, bytes, true);
        return {cfg_.ssdLatency, TierLevel::Ssd};
    }
    stats_.originFetches++;
    insertInto(dram_, cfg_.dramBytes, addr, storedBytes(data), true);
    return {cfg_.originLatency, TierLevel::Origin};
}

void
TieredStore::writeback(Addr addr, const CacheLine &data)
{
    stats_.writebacks++;
    const std::uint32_t bytes = storedBytes(data);
    const std::uint32_t ds = dram_.find(addr);
    if (ds != kNil) {
        Entry &e = dram_.slab[ds];
        dram_.usedBytes -= charge(cfg_.dramCompressed, e.bytes);
        e.bytes = bytes;
        dram_.usedBytes += charge(cfg_.dramCompressed, bytes);
        touch(dram_, ds);
        // The rewrite may compress worse than what it replaced; the
        // budget still holds (the line itself is MRU, so it survives).
        evictOver(dram_, cfg_.dramBytes, true);
        return;
    }
    const std::uint32_t ss = ssd_.find(addr);
    if (ss != kNil) {
        Entry &e = ssd_.slab[ss];
        ssd_.usedBytes -= charge(cfg_.ssdCompressed, e.bytes);
        e.bytes = bytes;
        ssd_.usedBytes += charge(cfg_.ssdCompressed, bytes);
        touch(ssd_, ss);
        evictOver(ssd_, cfg_.ssdBytes, false);
        return;
    }
    insertInto(dram_, cfg_.dramBytes, addr, bytes, true);
}

void
TieredStore::auditTier(check::AuditReport &r, const Tier &t,
                       const char *name, std::uint64_t budget) const
{
    const bool compressed =
        &t == &dram_ ? cfg_.dramCompressed : cfg_.ssdCompressed;
    // Walk the LRU list oldest first; the step cap stops a cycle.
    std::uint64_t bytes = 0;
    std::uint64_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t s = t.head; s != kNil && walked <= t.lines;
         prev = s, s = t.slab[s].next, walked++) {
        const Entry &e = t.slab[s];
        bytes += charge(compressed, e.bytes);
        r.require(e.bytes >= 1 && e.bytes <= kLineSize,
                  "%s line %llx stored size %u outside [1,64]", name,
                  static_cast<unsigned long long>(e.addr), e.bytes);
        r.require(e.prev == prev, "%s line %llx LRU back link broken",
                  name, static_cast<unsigned long long>(e.addr));
        r.require(prev == kNil || t.slab[prev].use < e.use,
                  "%s line %llx LRU stamp %llu out of order", name,
                  static_cast<unsigned long long>(e.addr),
                  static_cast<unsigned long long>(e.use));
        r.require(t.find(e.addr) == s,
                  "%s line %llx not indexed at its slot", name,
                  static_cast<unsigned long long>(e.addr));
    }
    r.require(prev == t.tail, "%s LRU list does not end at its tail",
              name);
    std::uint64_t indexed = 0;
    for (const Bucket &b : t.index)
        indexed += b.slot != kNil;
    r.require(walked == t.lines && indexed == t.lines,
              "%s LRU list length %llu, index occupancy %llu, line "
              "count %llu disagree",
              name, static_cast<unsigned long long>(walked),
              static_cast<unsigned long long>(indexed),
              static_cast<unsigned long long>(t.lines));
    r.require(bytes == t.usedBytes,
              "%s byte accounting: walked %llu != tracked %llu", name,
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(t.usedBytes));
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
    std::uint64_t n = 0;
    for (std::uint32_t s = dram_.head; s != kNil && n++ <= dram_.lines;
         s = dram_.slab[s].next) {
        const Addr a = dram_.slab[s].addr;
        r.require(ssd_.find(a) == kNil, "line %llx resident in both tiers",
                  static_cast<unsigned long long>(a));
    }
    return r;
}

void
TieredStore::registerProbes(telemetry::Registry &reg,
                            const std::string &prefix)
{
    reg.gauge(prefix + ".dram_lines",
              [this](Cycles) { return double(dram_.lines); });
    reg.gauge(prefix + ".ssd_lines",
              [this](Cycles) { return double(ssd_.lines); });
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

std::vector<TieredStore::Resident>
TieredStore::byAddress(const Tier &t)
{
    std::vector<Resident> rows;
    rows.reserve(t.lines);
    for (std::uint32_t s = t.head; s != kNil; s = t.slab[s].next) {
        const Entry &e = t.slab[s];
        rows.push_back({e.addr, e.bytes, e.use});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Resident &a, const Resident &b) {
                  return a.addr < b.addr;
              });
    return rows;
}

void
TieredStore::rebuild(Tier &t, std::vector<Resident> &rows,
                     snap::Deserializer &d)
{
    for (std::size_t i = 0; i < rows.size() && d.ok(); i++) {
        d.check(i == 0 || rows[i - 1].addr < rows[i].addr,
                "kv tier snapshot: line addresses are not strictly "
                "ascending");
        d.check(rows[i].use <= useClock_,
                "kv tier snapshot: LRU stamp above the clock");
        d.check(rows[i].bytes >= 1 && rows[i].bytes <= kLineSize,
                "kv tier snapshot: stored size outside [1,64]");
    }
    // The list is in stamp order: re-link it oldest first.
    std::sort(rows.begin(), rows.end(),
              [](const Resident &a, const Resident &b) {
                  return a.use < b.use;
              });
    for (std::size_t i = 1; i < rows.size() && d.ok(); i++)
        d.check(rows[i - 1].use != rows[i].use,
                "kv tier snapshot: duplicate LRU stamp");
    if (!d.ok())
        return;
    const bool compressed =
        &t == &dram_ ? cfg_.dramCompressed : cfg_.ssdCompressed;
    t = Tier{};
    for (const Resident &row : rows) {
        t.add(row.addr, row.bytes, row.use);
        t.usedBytes += charge(compressed, row.bytes);
    }
}

template <typename Self, typename IO>
void
TieredStore::walk(Self &self, IO &io)
{
    // Each tier is (addr, bytes, use) per line in ascending address
    // order; on load its list, index and byte total are rebuilt.
    io.section("KVTS", [&] {
        io.u64(self.useClock_);
        io.part(self.stats_);
        for (auto *t : {&self.dram_, &self.ssd_}) {
            std::vector<Resident> rows;
            if constexpr (!IO::kLoading)
                rows = byAddress(*t);
            io.vec(rows, 8 + 4 + 8, [&](auto &row) {
                io.u64(row.addr);
                io.u32(row.bytes);
                io.u64(row.use);
            });
            if constexpr (IO::kLoading)
                self.rebuild(*t, rows, io);
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
}

} // namespace kv
} // namespace morc
