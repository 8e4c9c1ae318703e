#include "cache/ideal.hh"

#include "check/check.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

IdealCache::IdealCache(OracleScope scope, std::uint64_t capacity_bytes,
                       unsigned set_bytes)
    : scope_(scope),
      capacity_(capacity_bytes),
      setBits_(static_cast<std::uint64_t>(set_bytes) * 8),
      numSets_(capacity_bytes / set_bytes)
{
    MORC_CHECK(isPow2(numSets_),
               "set count must be a power of two: capacity=%llu "
               "set_bytes=%u -> sets=%llu",
               static_cast<unsigned long long>(capacity_bytes), set_bytes,
               static_cast<unsigned long long>(numSets_));
    sets_.resize(numSets_);
    // Entry order inside a set is unstable (vector erase/push), so wear
    // is tracked per set only.
    wear_.configure(numSets_, 1);
}

std::uint64_t
IdealCache::setOf(Addr addr) const
{
    return splitmix64(lineNumber(addr)) & (numSets_ - 1);
}

std::uint32_t
IdealCache::costOf(const CacheLine &data) const
{
    return scope_ == OracleScope::IntraLine ? comp::oracleIntraBits(data)
                                            : dict_.interBits(data);
}

ReadResult
IdealCache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);
    for (auto &line : set.lines) {
        if (line.tag == tag) {
            stats_.readHits++;
            r.hit = true;
            r.data = line.data;
            line.lastUse = ++useClock_;
            return r;
        }
    }
    return r;
}

FillResult
IdealCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);

    for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
        if (it->tag == tag) {
            dirty |= it->dirty;
            set.usedBits -= it->bits;
            if (scope_ == OracleScope::InterLine)
                dict_.removeLine(it->data);
            set.lines.erase(it);
            valid_--;
            break;
        }
    }

    const std::uint32_t bits = costOf(data);
    while (set.usedBits + bits > setBits_ && !set.lines.empty()) {
        auto victim = set.lines.begin();
        for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
            if (it->lastUse < victim->lastUse)
                victim = it;
        }
        if (victim->dirty) {
            result.writebacks.push_back(
                {victim->tag << kLineShift, victim->data});
            stats_.victimWritebacks++;
        }
        set.usedBits -= victim->bits;
        if (scope_ == OracleScope::InterLine)
            dict_.removeLine(victim->data);
        set.lines.erase(victim);
        valid_--;
    }

    // Limit-study approximation: the oracle emits no real bitstream, so
    // charge its idealized cost and cap flips at the programmed width.
    chargeWear(setOf(addr), 0, bits,
               std::min<std::uint64_t>(energy::linePopcount(data), bits));
    set.lines.push_back({tag, dirty, bits, ++useClock_, data});
    set.usedBits += bits;
    if (scope_ == OracleScope::InterLine)
        dict_.addLine(data);
    valid_++;
    stats_.linesCompressed++;
    result.linesCompressed++;
    return result;
}

check::AuditReport
IdealCache::audit() const
{
    check::AuditReport r;
    std::uint64_t total_valid = 0;
    for (std::uint64_t s = 0; s < sets_.size(); s++) {
        const Set &set = sets_[s];
        std::uint64_t used = 0;
        for (std::size_t i = 0; i < set.lines.size(); i++) {
            const LineEntry &l = set.lines[i];
            total_valid++;
            used += l.bits;
            r.require(setOf(l.tag << kLineShift) == s,
                      "set %llu entry %zu holds tag %llu that indexes "
                      "set %llu",
                      static_cast<unsigned long long>(s), i,
                      static_cast<unsigned long long>(l.tag),
                      static_cast<unsigned long long>(
                          setOf(l.tag << kLineShift)));
            // The intra-line oracle is stateless, so the stored cost is
            // recomputable; the inter-line dictionary has evolved since
            // insertion, so only the intra cost can be re-derived.
            if (scope_ == OracleScope::IntraLine) {
                r.require(l.bits == comp::oracleIntraBits(l.data),
                          "set %llu tag %llu stored cost %u bits, "
                          "recomputed %u",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag), l.bits,
                          comp::oracleIntraBits(l.data));
            }
            for (std::size_t j = i + 1; j < set.lines.size(); j++) {
                r.require(set.lines[j].tag != l.tag,
                          "set %llu holds duplicate tag %llu at entries "
                          "%zu and %zu",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag), i, j);
            }
        }
        r.require(used == set.usedBits,
                  "set %llu accounts %llu used bits but lines sum to "
                  "%llu",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(set.usedBits),
                  static_cast<unsigned long long>(used));
        // The eviction loop stops at one resident line even when that
        // line alone overflows the set (progress guarantee).
        r.require(set.usedBits <= setBits_ || set.lines.size() == 1,
                  "set %llu uses %llu bits, budget %llu",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(set.usedBits),
                  static_cast<unsigned long long>(setBits_));
    }
    r.require(total_valid == valid_,
              "valid-line counter %llu disagrees with %llu resident "
              "entries",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(total_valid));
    return r;
}

template <typename Self, typename IO>
void
IdealCache::walk(Self &self, IO &io)
{
    io.section("IDEA", [&] {
        const char *geometry = "ideal cache geometry mismatch";
        io.expect(static_cast<std::uint8_t>(
                      self.scope_ == OracleScope::InterLine ? 1 : 0),
                  geometry);
        io.expect(self.capacity_, geometry);
        io.expect(self.setBits_, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.part(self.stats_);
        io.part(self.wear_);
        io.fixedVec(self.sets_, 8 + 8, geometry, [&](auto &set) {
            io.u64(set.usedBits);
            io.vec(set.lines, 8 + 1 + 4 + 8 + kLineSize, [&](auto &l) {
                io.u64(l.tag);
                io.boolean(l.dirty);
                io.u32(l.bits);
                io.u64(l.lastUse);
                io.bytes(l.data.bytes.data(), kLineSize);
            });
        });
    });
}

void
IdealCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
IdealCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
    if (!d.ok())
        return;
    // dict_ is derived state (word refcounts of resident lines).
    dict_.clear();
    if (scope_ == OracleScope::InterLine) {
        for (const Set &set : sets_) {
            for (const LineEntry &l : set.lines)
                dict_.addLine(l.data);
        }
    }
}

} // namespace cache
} // namespace morc
