#include "cache/adaptive.hh"

#include <algorithm>

#include "check/check.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

AdaptiveCache::AdaptiveCache() : AdaptiveCache(Config{}) {}

AdaptiveCache::AdaptiveCache(const Config &cfg) : cfg_(cfg)
{
    numSets_ = cfg.capacityBytes / kLineSize / cfg.ways;
    MORC_CHECK(numSets_ >= 1 && isPow2(numSets_),
               "set count must be a non-zero power of two: capacity=%llu "
               "ways=%u -> sets=%llu",
               static_cast<unsigned long long>(cfg.capacityBytes),
               cfg.ways, static_cast<unsigned long long>(numSets_));
    sets_.resize(numSets_);
    // Segment allocation shifts entries around the set's data space, so
    // wear is tracked per set only.
    wear_.configure(numSets_, 1);
}

void
AdaptiveCache::lineImage(const CacheLine &data, bool compressed,
                         BitWriter &out)
{
    if (compressed) {
        comp::CpackEncoder enc;
        enc.append(data, &out);
    } else {
        energy::rawImage(data, out);
    }
}

std::uint64_t
AdaptiveCache::setOf(Addr addr) const
{
    return splitmix64(lineNumber(addr)) & (numSets_ - 1);
}

unsigned
AdaptiveCache::segmentsFor(std::uint32_t bits) const
{
    return static_cast<unsigned>(
        divCeil(divCeil(bits, 8), cfg_.segmentBytes));
}

unsigned
AdaptiveCache::segBudget() const
{
    return cfg_.ways * kLineSize / cfg_.segmentBytes;
}

unsigned
AdaptiveCache::stackDepth(const Set &set, const LineEntry &line) const
{
    unsigned depth = 0;
    for (const auto &other : set.lines) {
        if (other.lastUse > line.lastUse)
            depth++;
    }
    return depth;
}

ReadResult
AdaptiveCache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);
    for (auto &line : set.lines) {
        if (line.tag != tag)
            continue;
        if (!line.hasData) {
            // Shadow-tag hit (Alameldeen & Wood's extra tags): the line
            // would have been resident had the set been compressed.
            // This is a miss, but it votes for compression with the
            // avoided memory latency.
            predictor_ += cfg_.predictorMemLatency;
            line.lastUse = ++useClock_;
            return r;
        }
        stats_.readHits++;
        r.hit = true;
        r.data = line.data;
        if (line.compressed) {
            r.extraLatency = cfg_.decompressionLatency;
            chargeDecompression(r, 1, kLineSize);
            // A hit that would also have hit uncompressed paid the
            // decompression latency for nothing: vote against.
            if (stackDepth(set, line) < cfg_.ways)
                predictor_ -= cfg_.decompressionLatency;
        }
        line.lastUse = ++useClock_;
        return r;
    }
    return r;
}

void
AdaptiveCache::evictUntilFits(Set &set, unsigned needed_segments,
                              FillResult &result)
{
    const unsigned budget = segBudget();
    const unsigned max_tags = cfg_.ways * cfg_.tagFactor;
    auto used = [&] {
        unsigned sum = 0;
        for (const auto &l : set.lines)
            sum += l.segments;
        return sum;
    };

    // Data pressure: demote LRU data-holding lines to shadow tags
    // (write back dirty data first).
    while (used() + needed_segments > budget) {
        LineEntry *victim = nullptr;
        for (auto &l : set.lines) {
            if (!l.hasData)
                continue;
            if (!victim || l.lastUse < victim->lastUse)
                victim = &l;
        }
        MORC_CHECK(victim != nullptr,
                   "segment budget exceeded with no data lines: need %u "
                   "segments on top of %u used (budget %u)",
                   needed_segments, used(), budget);
        if (victim->dirty) {
            result.writebacks.push_back(
                {victim->tag << kLineShift, victim->data});
            stats_.victimWritebacks++;
            if (victim->compressed)
                chargeDecompression(result, 1, kLineSize);
        }
        victim->hasData = false;
        victim->dirty = false;
        victim->compressed = false;
        victim->segments = 0;
        victim->data = CacheLine{};
        valid_--;
    }

    // Tag pressure: drop LRU entries outright.
    while (set.lines.size() + 1 > max_tags) {
        auto victim = set.lines.begin();
        for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
            if (it->lastUse < victim->lastUse)
                victim = it;
        }
        if (victim->hasData) {
            if (victim->dirty) {
                result.writebacks.push_back(
                    {victim->tag << kLineShift, victim->data});
                stats_.victimWritebacks++;
                if (victim->compressed)
                    chargeDecompression(result, 1, kLineSize);
            }
            valid_--;
        }
        set.lines.erase(victim);
    }
}

FillResult
AdaptiveCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);

    const bool compress = predictor_ >= 0;
    const std::uint32_t bits = comp::CpackEncoder::lineBits(data);
    unsigned segments = compress ? segmentsFor(bits)
                                 : kLineSize / cfg_.segmentBytes;
    bool stored_compressed = compress;
    if (segments >= kLineSize / cfg_.segmentBytes) {
        segments = kLineSize / cfg_.segmentBytes;
        stored_compressed = false; // expansion: store raw
    }
    if (stored_compressed) {
        stats_.linesCompressed++;
        result.linesCompressed++;
    }

    // Replace any existing entry (resident or shadow). A size change
    // within contiguous segments forces re-allocation, which models the
    // compaction the scheme needs.
    bool hadData = false;
    BitWriter oldImage;
    for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
        if (it->tag == tag) {
            if (it->hasData) {
                dirty |= it->dirty;
                valid_--;
                hadData = true;
                lineImage(it->data, it->compressed, oldImage);
            }
            set.lines.erase(it);
            break;
        }
    }

    evictUntilFits(set, segments, result);

    LineEntry entry;
    entry.tag = tag;
    entry.hasData = true;
    entry.dirty = dirty;
    entry.compressed = stored_compressed;
    entry.segments = segments;
    entry.lastUse = ++useClock_;
    entry.data = data;
    // Charge the emitted image against the frame: flips relative to the
    // replaced entry's image when the same line is re-programmed in
    // place, otherwise a program of previously erased segments.
    BitWriter newImage;
    lineImage(data, stored_compressed, newImage);
    chargeImageWear(setOf(addr), 0, hadData, oldImage, newImage);
    set.lines.push_back(entry);
    valid_++;
    return result;
}

check::AuditReport
AdaptiveCache::audit() const
{
    check::AuditReport r;
    const unsigned budget = segBudget();
    const unsigned max_tags = cfg_.ways * cfg_.tagFactor;
    const unsigned max_segments = kLineSize / cfg_.segmentBytes;
    std::uint64_t total_valid = 0;
    for (std::uint64_t s = 0; s < sets_.size(); s++) {
        const Set &set = sets_[s];
        r.require(set.lines.size() <= max_tags,
                  "set %llu holds %zu tags, budget %u",
                  static_cast<unsigned long long>(s), set.lines.size(),
                  max_tags);
        unsigned used = 0;
        for (std::size_t i = 0; i < set.lines.size(); i++) {
            const LineEntry &l = set.lines[i];
            used += l.segments;
            r.require(setOf(l.tag << kLineShift) == s,
                      "set %llu entry %zu holds tag %llu that indexes "
                      "set %llu",
                      static_cast<unsigned long long>(s), i,
                      static_cast<unsigned long long>(l.tag),
                      static_cast<unsigned long long>(
                          setOf(l.tag << kLineShift)));
            for (std::size_t j = i + 1; j < set.lines.size(); j++) {
                r.require(set.lines[j].tag != l.tag,
                          "set %llu holds duplicate tag %llu at entries "
                          "%zu and %zu",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag), i, j);
            }
            if (l.hasData) {
                total_valid++;
                r.require(l.segments >= 1 && l.segments <= max_segments,
                          "set %llu tag %llu data line spans %u segments "
                          "(want 1..%u)",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag),
                          l.segments, max_segments);
                r.require(!l.compressed || l.segments < max_segments,
                          "set %llu tag %llu marked compressed but fills "
                          "all %u segments",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag),
                          l.segments);
            } else {
                // Shadow tag: no storage, no dirty data to lose.
                r.require(l.segments == 0 && !l.dirty && !l.compressed,
                          "set %llu shadow tag %llu carries state "
                          "(segments=%u dirty=%d compressed=%d)",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag),
                          l.segments, l.dirty ? 1 : 0,
                          l.compressed ? 1 : 0);
            }
        }
        r.require(used <= budget,
                  "set %llu uses %u segments, budget %u",
                  static_cast<unsigned long long>(s), used, budget);
    }
    r.require(total_valid == valid_,
              "valid-line counter %llu disagrees with %llu data-holding "
              "entries",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(total_valid));
    return r;
}

template <typename Self, typename IO>
void
AdaptiveCache::walk(Self &self, IO &io)
{
    io.section("ADPT", [&] {
        const char *geometry = "adaptive cache geometry mismatch";
        io.expect(self.cfg_.capacityBytes, geometry);
        io.expect(self.cfg_.ways, geometry);
        io.expect(self.cfg_.tagFactor, geometry);
        io.expect(self.cfg_.segmentBytes, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.i64(self.predictor_);
        io.part(self.stats_);
        io.part(self.wear_);
        // The per-set rules audit() states, which evictUntilFits relies
        // on to always find room.
        const unsigned max_tags = self.cfg_.ways * self.cfg_.tagFactor;
        const unsigned max_segments = kLineSize / self.cfg_.segmentBytes;
        io.fixedVec(self.sets_, 8, geometry, [&](auto &set) {
            std::uint64_t used = 0;
            io.vec(set.lines, 8 + 3 + 4 + 8 + kLineSize, [&](auto &l) {
                io.u64(l.tag);
                io.boolean(l.hasData);
                io.boolean(l.dirty);
                io.boolean(l.compressed);
                io.u32(l.segments);
                io.u64(l.lastUse);
                io.bytes(l.data.bytes.data(), kLineSize);
                io.check(l.hasData ? l.segments >= 1 &&
                                         l.segments <= max_segments
                                   : l.segments == 0 && !l.dirty &&
                                         !l.compressed,
                         "adaptive line: a data line spans 1 to 8 "
                         "segments, a shadow tag none and no flags");
                used += l.segments;
            });
            io.check(set.lines.size() <= max_tags &&
                         used <= self.segBudget(),
                     "adaptive set over its tag or segment budget");
        });
    });
}

void
AdaptiveCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
AdaptiveCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace cache
} // namespace morc
