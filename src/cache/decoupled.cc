#include "cache/decoupled.hh"

#include "check/check.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

namespace {

/** Image the segment array stores for a sub-line (C-Pack stream when
 *  compressed, the raw line otherwise), for wear accounting. */
void
subLineImage(const CacheLine &data, bool compressed, BitWriter &out)
{
    if (compressed) {
        comp::CpackEncoder enc;
        enc.append(data, &out);
    } else {
        energy::rawImage(data, out);
    }
}

} // namespace

DecoupledCache::DecoupledCache() : DecoupledCache(Config{}) {}

DecoupledCache::DecoupledCache(const Config &cfg) : cfg_(cfg)
{
    numSets_ = cfg.capacityBytes / kLineSize / cfg.ways;
    MORC_CHECK(numSets_ >= 1 && isPow2(numSets_),
               "set count must be a non-zero power of two: capacity=%llu "
               "ways=%u -> sets=%llu",
               static_cast<unsigned long long>(cfg.capacityBytes),
               cfg.ways, static_cast<unsigned long long>(numSets_));
    sets_.resize(numSets_);
    for (auto &set : sets_)
        set.blocks.resize(cfg_.ways);
    for (auto &set : sets_)
        for (auto &b : set.blocks)
            b.lines.resize(cfg_.linesPerSuperBlock);
    wear_.configure(numSets_, cfg_.ways);
}

std::uint64_t
DecoupledCache::setOf(Addr super_tag) const
{
    return splitmix64(super_tag) & (numSets_ - 1);
}

unsigned
DecoupledCache::usedSegments(const Set &set) const
{
    unsigned sum = 0;
    for (const auto &b : set.blocks) {
        if (!b.valid)
            continue;
        for (const auto &l : b.lines) {
            if (l.valid)
                sum += l.segments;
        }
    }
    return sum;
}

void
DecoupledCache::evictBlock(Set &set, SuperBlock &block, FillResult &result)
{
    (void)set;
    for (unsigned i = 0; i < block.lines.size(); i++) {
        SubLine &l = block.lines[i];
        if (!l.valid)
            continue;
        if (l.dirty) {
            const Addr line_number =
                block.tag * cfg_.linesPerSuperBlock + i;
            result.writebacks.push_back(
                {line_number << kLineShift, l.data});
            stats_.victimWritebacks++;
            if (l.compressed)
                chargeDecompression(result, 1, kLineSize);
        }
        l.valid = false;
        valid_--;
    }
    block.valid = false;
}

ReadResult
DecoupledCache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    const Addr line_number = lineNumber(addr);
    const Addr super_tag = line_number / cfg_.linesPerSuperBlock;
    const unsigned sub = line_number % cfg_.linesPerSuperBlock;
    Set &set = sets_[setOf(super_tag)];
    for (auto &b : set.blocks) {
        if (!b.valid || b.tag != super_tag)
            continue;
        SubLine &l = b.lines[sub];
        if (!l.valid)
            return r;
        stats_.readHits++;
        r.hit = true;
        r.data = l.data;
        if (l.compressed) {
            r.extraLatency = cfg_.decompressionLatency;
            chargeDecompression(r, 1, kLineSize);
        }
        b.lastUse = ++useClock_;
        return r;
    }
    return r;
}

FillResult
DecoupledCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;
    const Addr line_number = lineNumber(addr);
    const Addr super_tag = line_number / cfg_.linesPerSuperBlock;
    const unsigned sub = line_number % cfg_.linesPerSuperBlock;
    Set &set = sets_[setOf(super_tag)];

    const std::uint32_t bits = comp::CpackEncoder::lineBits(data);
    unsigned segments = static_cast<unsigned>(
        divCeil(divCeil(bits, 8), cfg_.segmentBytes));
    const unsigned max_segments = kLineSize / cfg_.segmentBytes;
    bool compressed = true;
    if (segments >= max_segments) {
        segments = max_segments;
        compressed = false;
    } else {
        stats_.linesCompressed++;
        result.linesCompressed++;
    }

    // Find or allocate the super-block.
    SuperBlock *block = nullptr;
    for (auto &b : set.blocks) {
        if (b.valid && b.tag == super_tag) {
            block = &b;
            break;
        }
    }
    if (!block) {
        for (auto &b : set.blocks) {
            if (!b.valid) {
                block = &b;
                break;
            }
        }
    }
    if (!block) {
        // Evict the LRU super-block.
        block = &set.blocks[0];
        for (auto &b : set.blocks) {
            if (b.lastUse < block->lastUse)
                block = &b;
        }
        evictBlock(set, *block, result);
    }
    if (!block->valid) {
        block->valid = true;
        block->tag = super_tag;
        for (auto &l : block->lines)
            l.valid = false;
    }

    // Replace any existing copy of this sub-line.
    SubLine &line = block->lines[sub];
    bool hadData = false;
    BitWriter oldImage;
    if (line.valid) {
        dirty |= line.dirty;
        hadData = true;
        subLineImage(line.data, line.compressed, oldImage);
        line.valid = false;
        valid_--;
    }

    // Free segment space by evicting LRU super-blocks (never the one we
    // are inserting into).
    while (usedSegments(set) + segments >
           cfg_.ways * kLineSize / cfg_.segmentBytes) {
        SuperBlock *victim = nullptr;
        for (auto &b : set.blocks) {
            if (!b.valid || &b == block)
                continue;
            if (!victim || b.lastUse < victim->lastUse)
                victim = &b;
        }
        if (!victim) {
            // Only our block remains: evict its other sub-lines.
            bool any = false;
            for (unsigned i = 0; i < block->lines.size(); i++) {
                if (i == sub || !block->lines[i].valid)
                    continue;
                SubLine &l = block->lines[i];
                if (l.dirty) {
                    const Addr ln =
                        block->tag * cfg_.linesPerSuperBlock + i;
                    result.writebacks.push_back({ln << kLineShift, l.data});
                    stats_.victimWritebacks++;
                    if (l.compressed)
                        chargeDecompression(result, 1, kLineSize);
                }
                l.valid = false;
                valid_--;
                any = true;
                break;
            }
            if (!any)
                break; // a single line always fits
            continue;
        }
        evictBlock(set, *victim, result);
    }

    line.valid = true;
    line.dirty = dirty;
    line.compressed = compressed;
    line.segments = segments;
    line.data = data;
    // Charge the emitted image: flips against the replaced copy when
    // the same sub-line is re-programmed, else a fresh program.
    BitWriter newImage;
    subLineImage(data, compressed, newImage);
    chargeImageWear(setOf(super_tag),
                    static_cast<std::uint64_t>(block - set.blocks.data()),
                    hadData, oldImage, newImage);
    block->lastUse = ++useClock_;
    valid_++;
    return result;
}

check::AuditReport
DecoupledCache::audit() const
{
    check::AuditReport r;
    const unsigned budget = cfg_.ways * kLineSize / cfg_.segmentBytes;
    const unsigned max_segments = kLineSize / cfg_.segmentBytes;
    std::uint64_t total_valid = 0;
    for (std::uint64_t s = 0; s < sets_.size(); s++) {
        const Set &set = sets_[s];
        r.require(set.blocks.size() == cfg_.ways,
                  "set %llu holds %zu super-blocks, want %u",
                  static_cast<unsigned long long>(s), set.blocks.size(),
                  cfg_.ways);
        unsigned used = 0;
        for (std::size_t b = 0; b < set.blocks.size(); b++) {
            const SuperBlock &block = set.blocks[b];
            r.require(block.lines.size() == cfg_.linesPerSuperBlock,
                      "set %llu block %zu tracks %zu sub-lines, want %u",
                      static_cast<unsigned long long>(s), b,
                      block.lines.size(), cfg_.linesPerSuperBlock);
            if (!block.valid)
                continue;
            r.require(setOf(block.tag) == s,
                      "set %llu block %zu holds super-tag %llu that "
                      "indexes set %llu",
                      static_cast<unsigned long long>(s), b,
                      static_cast<unsigned long long>(block.tag),
                      static_cast<unsigned long long>(setOf(block.tag)));
            for (std::size_t b2 = b + 1; b2 < set.blocks.size(); b2++) {
                const SuperBlock &other = set.blocks[b2];
                r.require(!other.valid || other.tag != block.tag,
                          "set %llu holds duplicate super-tag %llu in "
                          "blocks %zu and %zu",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(block.tag), b,
                          b2);
            }
            for (std::size_t i = 0; i < block.lines.size(); i++) {
                const SubLine &l = block.lines[i];
                if (!l.valid)
                    continue;
                total_valid++;
                used += l.segments;
                r.require(l.segments >= 1 && l.segments <= max_segments,
                          "set %llu block %zu sub-line %zu spans %u "
                          "segments (want 1..%u)",
                          static_cast<unsigned long long>(s), b, i,
                          l.segments, max_segments);
                r.require(l.compressed == (l.segments < max_segments),
                          "set %llu block %zu sub-line %zu compressed "
                          "flag %d disagrees with %u/%u segments",
                          static_cast<unsigned long long>(s), b, i,
                          l.compressed ? 1 : 0, l.segments, max_segments);
            }
        }
        r.require(used <= budget, "set %llu uses %u segments, budget %u",
                  static_cast<unsigned long long>(s), used, budget);
    }
    r.require(total_valid == valid_,
              "valid-line counter %llu disagrees with %llu valid "
              "sub-lines",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(total_valid));
    return r;
}

template <typename Self, typename IO>
void
DecoupledCache::walk(Self &self, IO &io)
{
    io.section("DECP", [&] {
        const char *geometry = "decoupled cache geometry mismatch";
        io.expect(self.cfg_.capacityBytes, geometry);
        io.expect(self.cfg_.ways, geometry);
        io.expect(self.cfg_.linesPerSuperBlock, geometry);
        io.expect(self.cfg_.segmentBytes, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.part(self.stats_);
        io.part(self.wear_);
        // Exactly `ways` super-blocks per set: insert's LRU victim scan
        // starts at blocks[0], and the way index charges wear.
        io.fixedVec(self.sets_, 8, geometry, [&](auto &set) {
            io.fixedVec(set.blocks, 8 + 1 + 8 + 8,
                        "decoupled set super-block count mismatch",
                        [&](auto &b) {
                io.u64(b.tag);
                io.boolean(b.valid);
                io.u64(b.lastUse);
                io.fixedVec(b.lines, 1 + 1 + 1 + 4 + kLineSize,
                            "decoupled super-block line-count mismatch",
                            [&](auto &l) {
                    io.boolean(l.valid);
                    io.boolean(l.dirty);
                    io.boolean(l.compressed);
                    io.u32(l.segments);
                    io.bytes(l.data.bytes.data(), kLineSize);
                });
            });
        });
    });
}

void
DecoupledCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
DecoupledCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace cache
} // namespace morc
