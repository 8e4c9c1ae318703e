#include "cache/uncompressed.hh"

#include "check/check.hh"

namespace morc {
namespace cache {

UncompressedCache::UncompressedCache(std::uint64_t capacity_bytes,
                                     unsigned ways)
    : capacity_(capacity_bytes), ways_(ways)
{
    numSets_ = capacity_bytes / kLineSize / ways;
    MORC_CHECK(numSets_ >= 1 && isPow2(numSets_),
               "set count must be a non-zero power of two: capacity=%llu "
               "ways=%u -> sets=%llu",
               static_cast<unsigned long long>(capacity_bytes), ways,
               static_cast<unsigned long long>(numSets_));
    store_.resize(numSets_ * ways_);
    wear_.configure(numSets_, ways_);
}

std::uint64_t
UncompressedCache::setOf(Addr addr) const
{
    // Hash the line number so multi-program address spaces (thread id in
    // the upper bits) spread over the shared cache.
    return splitmix64(lineNumber(addr)) & (numSets_ - 1);
}

UncompressedCache::Way *
UncompressedCache::find(Addr addr)
{
    const std::uint64_t set = setOf(addr);
    const Addr tag = lineNumber(addr);
    for (unsigned w = 0; w < ways_; w++) {
        Way &way = store_[set * ways_ + w];
        if (way.valid && way.tag == tag)
            return &way;
    }
    return nullptr;
}

ReadResult
UncompressedCache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    Way *way = find(addr);
    if (way) {
        stats_.readHits++;
        way->lastUse = ++useClock_;
        r.hit = true;
        r.data = way->data;
    }
    return r;
}

FillResult
UncompressedCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;

    if (Way *way = find(addr)) {
        // Re-programming the frame writes the whole raw line; only the
        // cells that differ from the previous contents flip.
        chargeWear(setOf(addr),
                   static_cast<std::uint64_t>(way - store_.data()) %
                       ways_,
                   kLineSize * 8, energy::lineFlips(way->data, data));
        way->data = data;
        way->dirty |= dirty;
        way->lastUse = ++useClock_;
        return result;
    }

    const std::uint64_t set = setOf(addr);
    Way *victim = nullptr;
    for (unsigned w = 0; w < ways_; w++) {
        Way &way = store_[set * ways_ + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim || way.lastUse < victim->lastUse)
            victim = &way;
    }
    if (victim->valid) {
        valid_--;
        if (victim->dirty) {
            result.writebacks.push_back(
                {victim->tag << kLineShift, victim->data});
            stats_.victimWritebacks++;
        }
    }
    chargeWear(set,
               static_cast<std::uint64_t>(victim - store_.data()) % ways_,
               kLineSize * 8,
               victim->valid ? energy::lineFlips(victim->data, data)
                             : energy::linePopcount(data));
    victim->tag = lineNumber(addr);
    victim->valid = true;
    victim->dirty = dirty;
    victim->data = data;
    victim->lastUse = ++useClock_;
    valid_++;
    return result;
}

check::AuditReport
UncompressedCache::audit() const
{
    check::AuditReport r;
    r.require(store_.size() == numSets_ * ways_,
              "store has %zu entries, want %llu sets x %u ways",
              store_.size(), static_cast<unsigned long long>(numSets_),
              ways_);
    std::uint64_t total_valid = 0;
    for (std::uint64_t set = 0; set < numSets_; set++) {
        for (unsigned w = 0; w < ways_; w++) {
            const Way &way = store_[set * ways_ + w];
            if (!way.valid)
                continue;
            total_valid++;
            r.require(way.lastUse <= useClock_,
                      "set %llu way %u lastUse %llu exceeds clock %llu",
                      static_cast<unsigned long long>(set), w,
                      static_cast<unsigned long long>(way.lastUse),
                      static_cast<unsigned long long>(useClock_));
            r.require(setOf(way.tag << kLineShift) == set,
                      "set %llu way %u holds tag %llu that indexes set "
                      "%llu",
                      static_cast<unsigned long long>(set), w,
                      static_cast<unsigned long long>(way.tag),
                      static_cast<unsigned long long>(
                          setOf(way.tag << kLineShift)));
            for (unsigned w2 = w + 1; w2 < ways_; w2++) {
                const Way &other = store_[set * ways_ + w2];
                r.require(!other.valid || other.tag != way.tag,
                          "set %llu holds duplicate tag %llu in ways %u "
                          "and %u",
                          static_cast<unsigned long long>(set),
                          static_cast<unsigned long long>(way.tag), w, w2);
            }
        }
    }
    r.require(total_valid == valid_,
              "valid-line counter %llu disagrees with %llu valid ways",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(total_valid));
    return r;
}

template <typename Self, typename IO>
void
UncompressedCache::walk(Self &self, IO &io)
{
    io.section("UNCP", [&] {
        const char *geometry = "uncompressed cache geometry mismatch";
        io.expect(self.capacity_, geometry);
        io.expect(self.ways_, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.part(self.stats_);
        io.part(self.wear_);
        io.fixedVec(self.store_, 8 + 1 + 1 + 8 + kLineSize, geometry,
                    [&](auto &w) {
                        io.u64(w.tag);
                        io.boolean(w.valid);
                        io.boolean(w.dirty);
                        io.u64(w.lastUse);
                        io.bytes(w.data.bytes.data(), kLineSize);
                    });
    });
}

void
UncompressedCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
UncompressedCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace cache
} // namespace morc
