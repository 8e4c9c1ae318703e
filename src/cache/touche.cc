#include "cache/touche.hh"

#include "check/check.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

ToucheCache::ToucheCache() : ToucheCache(Config{}) {}

ToucheCache::ToucheCache(const Config &cfg) : cfg_(cfg)
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
            b.slots.resize(cfg_.linesPerSuperBlock);
    wear_.configure(numSets_, cfg_.ways);
}

std::uint64_t
ToucheCache::setOf(Addr super_tag) const
{
    return splitmix64(super_tag) & (numSets_ - 1);
}

std::uint32_t
ToucheCache::usedBits(const SuperBlock &block) const
{
    std::uint32_t sum = 0;
    for (const auto &slot : block.slots) {
        if (slot.valid)
            sum += slot.costBits;
    }
    return sum;
}

std::uint32_t
ToucheCache::costOf(const CacheLine &data, bool *compressed)
{
    const std::uint32_t bits =
        comp::CpackEncoder::lineBits(data) + kEmbeddedTagBits;
    if (bits >= kWayBits) {
        *compressed = false;
        return kWayBits;
    }
    *compressed = true;
    return bits;
}

void
ToucheCache::evictSlot(SuperBlock &block, std::size_t idx,
                       FillResult &result)
{
    Slot &slot = block.slots[idx];
    MORC_DCHECK(slot.valid, "evicting invalid slot %zu", idx);
    if (slot.dirty) {
        result.writebacks.push_back(
            {slot.lineNumber << kLineShift, slot.data});
        stats_.victimWritebacks++;
        if (slot.compressed)
            chargeDecompression(result, 1, kLineSize);
    }
    slot.valid = false;
    valid_--;
}

void
ToucheCache::evictBlock(SuperBlock &block, FillResult &result)
{
    for (std::size_t i = 0; i < block.slots.size(); i++) {
        if (block.slots[i].valid)
            evictSlot(block, i, result);
    }
    block.valid = false;
    // The data entry is not erased on eviction: its cells keep the old
    // image until the next fill programs over it.
}

void
ToucheCache::packImage(const SuperBlock &block, BitWriter &out) const
{
    comp::CpackEncoder enc;
    for (const auto &slot : block.slots) {
        if (!slot.valid)
            continue;
        if (slot.compressed) {
            enc.reset();
            const std::uint32_t bits = enc.append(slot.data, &out);
            out.put(slot.lineNumber, kEmbeddedTagBits);
            MORC_DCHECK(bits + kEmbeddedTagBits == slot.costBits,
                        "slot image spans %u bits, metadata says %u",
                        bits + kEmbeddedTagBits, slot.costBits);
        } else {
            energy::rawImage(slot.data, out);
        }
    }
    // The write programs the whole 512-bit entry; unused tail cells are
    // cleared so stale bits cannot alias a future signature check.
    while (out.sizeBits() < kWayBits)
        out.put(0, static_cast<unsigned>(
                       std::min<std::uint64_t>(64, kWayBits -
                                                       out.sizeBits())));
}

void
ToucheCache::packSigStream(const SuperBlock &block, BitWriter &out) const
{
    comp::SigCodec codec;
    for (const auto &slot : block.slots) {
        if (slot.valid)
            codec.append(slot.sig, &out);
    }
}

void
ToucheCache::repackWay(std::uint64_t set_idx, std::uint64_t way_idx,
                       SuperBlock &block)
{
    BitWriter image;
    packImage(block, image);
    const std::uint32_t payload = usedBits(block);
    const std::uint64_t flips =
        energy::flipBits(block.image.words(), block.image.sizeBits(),
                         image.words(), image.sizeBits());
    chargeWear(set_idx, way_idx, payload, flips);
    block.image = std::move(image);

    BitWriter sigs;
    packSigStream(block, sigs);
    block.sigStream = std::move(sigs);
}

ReadResult
ToucheCache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    const Addr line_number = lineNumber(addr);
    const Addr super_tag = line_number / cfg_.linesPerSuperBlock;
    const std::uint16_t sig = comp::SigCodec::signatureOf(line_number);
    Set &set = sets_[setOf(super_tag)];
    for (auto &b : set.blocks) {
        if (!b.valid || b.tag != super_tag)
            continue;
        for (auto &slot : b.slots) {
            if (!slot.valid || slot.sig != sig)
                continue;
            // Probable hit: decompress, then verify the embedded tag.
            if (slot.compressed) {
                r.extraLatency = cfg_.decompressionLatency;
                chargeDecompression(r, 1, kLineSize);
            }
            if (slot.lineNumber != line_number) {
                // Signature collision: the decompression was wasted
                // and the access is a miss.
                stats_.sigFalsePositives++;
                return r;
            }
            stats_.readHits++;
            r.hit = true;
            r.data = slot.data;
            b.lastUse = ++useClock_;
            return r;
        }
        return r; // tag matched, no signature did: clean miss
    }
    return r;
}

FillResult
ToucheCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;
    const Addr line_number = lineNumber(addr);
    const Addr super_tag = line_number / cfg_.linesPerSuperBlock;
    const std::uint16_t sig = comp::SigCodec::signatureOf(line_number);
    const std::uint64_t set_idx = setOf(super_tag);
    Set &set = sets_[set_idx];

    bool compressed = false;
    const std::uint32_t cost = costOf(data, &compressed);
    if (compressed) {
        stats_.linesCompressed++;
        result.linesCompressed++;
    }

    // Find or allocate the superblock.
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
        // Evict the LRU superblock.
        block = &set.blocks[0];
        for (auto &b : set.blocks) {
            if (b.lastUse < block->lastUse)
                block = &b;
        }
        evictBlock(*block, result);
    }
    if (!block->valid) {
        block->valid = true;
        block->tag = super_tag;
        for (auto &slot : block->slots)
            slot.valid = false;
    }

    // Overwrite of a resident line; note growth for re-compaction
    // accounting. A resident impostor sharing our signature must be
    // evicted first — the lookup could never tell the two apart
    // (miss-repair after a false positive).
    Slot *target = nullptr;
    std::uint32_t freedBits = 0;
    for (std::size_t i = 0; i < block->slots.size(); i++) {
        Slot &slot = block->slots[i];
        if (!slot.valid)
            continue;
        if (slot.lineNumber == line_number) {
            target = &slot;
            freedBits = slot.costBits;
            if (cost > slot.costBits)
                stats_.recompactions++;
            dirty |= slot.dirty;
        } else if (slot.sig == sig) {
            stats_.sigEvictions++;
            evictSlot(*block, i, result);
        }
    }
    if (target) {
        target->valid = false;
        valid_--;
    } else {
        for (auto &slot : block->slots) {
            if (!slot.valid) {
                target = &slot;
                break;
            }
        }
    }
    MORC_CHECK(target != nullptr,
               "superblock %llu has no free slot for line %llu",
               static_cast<unsigned long long>(super_tag),
               static_cast<unsigned long long>(line_number));
    (void)freedBits;

    // Re-compaction: evict sibling lines until the packed image fits
    // the 512-bit data entry again.
    while (usedBits(*block) + cost > kWayBits) {
        std::size_t victim = block->slots.size();
        for (std::size_t i = 0; i < block->slots.size(); i++) {
            if (block->slots[i].valid && &block->slots[i] != target) {
                victim = i;
                break;
            }
        }
        MORC_CHECK(victim < block->slots.size(),
                   "line of %u bits cannot fit an empty %u-bit way",
                   cost, kWayBits);
        evictSlot(*block, victim, result);
    }

    target->valid = true;
    target->dirty = dirty;
    target->compressed = compressed;
    target->costBits = cost;
    target->sig = sig;
    target->lineNumber = line_number;
    target->data = data;
    block->lastUse = ++useClock_;
    valid_++;

    repackWay(set_idx,
              static_cast<std::uint64_t>(block - set.blocks.data()),
              *block);
    return result;
}

check::AuditReport
ToucheCache::audit() const
{
    check::AuditReport r;
    std::uint64_t total_valid = 0;
    for (std::uint64_t s = 0; s < sets_.size(); s++) {
        const Set &set = sets_[s];
        r.require(set.blocks.size() == cfg_.ways,
                  "set %llu holds %zu superblocks, want %u",
                  static_cast<unsigned long long>(s), set.blocks.size(),
                  cfg_.ways);
        for (std::size_t b = 0; b < set.blocks.size(); b++) {
            const SuperBlock &block = set.blocks[b];
            r.require(block.slots.size() == cfg_.linesPerSuperBlock,
                      "set %llu block %zu tracks %zu slots, want %u",
                      static_cast<unsigned long long>(s), b,
                      block.slots.size(), cfg_.linesPerSuperBlock);
            if (!block.valid)
                continue;
            r.require(setOf(block.tag) == s,
                      "set %llu block %zu holds super-tag %llu that "
                      "indexes set %llu",
                      static_cast<unsigned long long>(s), b,
                      static_cast<unsigned long long>(block.tag),
                      static_cast<unsigned long long>(setOf(block.tag)));
            r.require(block.lastUse <= useClock_,
                      "set %llu block %zu lastUse %llu exceeds clock "
                      "%llu",
                      static_cast<unsigned long long>(s), b,
                      static_cast<unsigned long long>(block.lastUse),
                      static_cast<unsigned long long>(useClock_));
            for (std::size_t b2 = b + 1; b2 < set.blocks.size(); b2++) {
                const SuperBlock &other = set.blocks[b2];
                r.require(!other.valid || other.tag != block.tag,
                          "set %llu holds duplicate super-tag %llu in "
                          "blocks %zu and %zu",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(block.tag), b,
                          b2);
            }

            std::uint32_t used = 0;
            std::uint64_t resident = 0;
            for (std::size_t i = 0; i < block.slots.size(); i++) {
                const Slot &slot = block.slots[i];
                if (!slot.valid)
                    continue;
                total_valid++;
                resident++;
                used += slot.costBits;
                r.require(slot.lineNumber / cfg_.linesPerSuperBlock ==
                              block.tag,
                          "set %llu block %zu slot %zu holds line %llu "
                          "outside superblock %llu",
                          static_cast<unsigned long long>(s), b, i,
                          static_cast<unsigned long long>(
                              slot.lineNumber),
                          static_cast<unsigned long long>(block.tag));
                // Forward signature derivation: stored signature must
                // re-derive from the line number.
                r.require(slot.sig == comp::SigCodec::signatureOf(
                                          slot.lineNumber),
                          "set %llu block %zu slot %zu signature %u "
                          "does not re-derive from line %llu (want %u)",
                          static_cast<unsigned long long>(s), b, i,
                          static_cast<unsigned>(slot.sig),
                          static_cast<unsigned long long>(
                              slot.lineNumber),
                          static_cast<unsigned>(comp::SigCodec::
                                                    signatureOf(
                                                        slot.lineNumber)));
                bool want_compressed = false;
                const std::uint32_t want_cost =
                    costOf(slot.data, &want_compressed);
                r.require(slot.costBits == want_cost &&
                              slot.compressed == want_compressed,
                          "set %llu block %zu slot %zu metadata "
                          "(%u bits, compressed=%d) disagrees with its "
                          "data (%u bits, compressed=%d)",
                          static_cast<unsigned long long>(s), b, i,
                          slot.costBits, slot.compressed ? 1 : 0,
                          want_cost, want_compressed ? 1 : 0);
                for (std::size_t j = i + 1; j < block.slots.size();
                     j++) {
                    const Slot &other = block.slots[j];
                    if (!other.valid)
                        continue;
                    r.require(other.lineNumber != slot.lineNumber,
                              "set %llu block %zu holds line %llu in "
                              "slots %zu and %zu",
                              static_cast<unsigned long long>(s), b,
                              static_cast<unsigned long long>(
                                  slot.lineNumber),
                              i, j);
                    r.require(other.sig != slot.sig,
                              "set %llu block %zu holds signature %u "
                              "in slots %zu and %zu (lookups cannot "
                              "disambiguate)",
                              static_cast<unsigned long long>(s), b,
                              static_cast<unsigned>(slot.sig), i, j);
                }
            }
            r.require(resident >= 1,
                      "set %llu block %zu is valid but empty",
                      static_cast<unsigned long long>(s), b);
            r.require(used <= kWayBits,
                      "set %llu block %zu packs %u bits into a %u-bit "
                      "data entry",
                      static_cast<unsigned long long>(s), b, used,
                      kWayBits);

            // Backward signature derivation: the stored metadata
            // stream must decode to exactly the resident signatures.
            BitWriter want_sigs;
            packSigStream(block, want_sigs);
            r.require(block.sigStream.sizeBits() ==
                              want_sigs.sizeBits() &&
                          block.sigStream.words() == want_sigs.words(),
                      "set %llu block %zu signature stream (%llu bits) "
                      "does not re-derive from its slots (%llu bits)",
                      static_cast<unsigned long long>(s), b,
                      static_cast<unsigned long long>(
                          block.sigStream.sizeBits()),
                      static_cast<unsigned long long>(
                          want_sigs.sizeBits()));
            comp::SigDecoder dec;
            BitReader in(block.sigStream);
            bool decoded_ok = true;
            for (const auto &slot : block.slots) {
                if (!slot.valid)
                    continue;
                if (in.remaining() <
                        1 ||
                    dec.next(in) != slot.sig) {
                    decoded_ok = false;
                    break;
                }
            }
            r.require(decoded_ok && in.remaining() == 0,
                      "set %llu block %zu signature stream does not "
                      "decode back to its resident signatures",
                      static_cast<unsigned long long>(s), b);

            // Data-entry image: re-pack the slots and compare with the
            // image last programmed.
            BitWriter want_image;
            packImage(block, want_image);
            r.require(block.image.sizeBits() == kWayBits &&
                          want_image.sizeBits() == kWayBits &&
                          block.image.words() == want_image.words(),
                      "set %llu block %zu data-entry image does not "
                      "re-derive from its slots",
                      static_cast<unsigned long long>(s), b);
        }
    }
    r.require(total_valid == valid_,
              "valid-line counter %llu disagrees with %llu valid slots",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(total_valid));
    r.require(wear_.totalBitsWritten() == stats_.cellBitsWritten &&
                  wear_.totalBitFlips() == stats_.cellBitFlips,
              "wear tracker (%llu bits, %llu flips) disagrees with "
              "stats counters (%llu bits, %llu flips)",
              static_cast<unsigned long long>(wear_.totalBitsWritten()),
              static_cast<unsigned long long>(wear_.totalBitFlips()),
              static_cast<unsigned long long>(stats_.cellBitsWritten),
              static_cast<unsigned long long>(stats_.cellBitFlips));
    return r;
}

bool
ToucheCache::debugCorruptSignature(std::uint64_t seed)
{
    if (valid_ == 0)
        return false;
    Rng rng(seed);
    std::uint64_t pick = rng.below(valid_);
    for (auto &set : sets_) {
        for (auto &block : set.blocks) {
            if (!block.valid)
                continue;
            for (auto &slot : block.slots) {
                if (!slot.valid)
                    continue;
                if (pick-- == 0) {
                    const unsigned bit = static_cast<unsigned>(
                        rng.below(comp::SigCodec::kSignatureBits));
                    slot.sig = static_cast<std::uint16_t>(
                        slot.sig ^ (1u << bit));
                    return true;
                }
            }
        }
    }
    return false;
}

template <typename Self, typename IO>
void
ToucheCache::walk(Self &self, IO &io)
{
    io.section("TCHE", [&] {
        const char *geometry = "touche cache geometry mismatch";
        const unsigned lines_per_sb = self.cfg_.linesPerSuperBlock;
        io.expect(self.cfg_.capacityBytes, geometry);
        io.expect(self.cfg_.ways, geometry);
        io.expect(lines_per_sb, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.part(self.stats_);
        io.part(self.wear_);
        // Exactly `ways` superblocks per set: insert's LRU victim scan
        // starts at blocks[0], and the way index charges wear.
        io.fixedVec(self.sets_, 8, geometry, [&](auto &set) {
            io.fixedVec(set.blocks, 8 + 1 + 8 + 8 + 8,
                        "touche set superblock count mismatch",
                        [&](auto &b) {
                io.u64(b.tag);
                io.boolean(b.valid);
                io.u64(b.lastUse);
                BitWriter::walk(b.sigStream, io, true);
                BitWriter::walk(b.image, io, true);
                io.fixedVec(b.slots, 1 + 1 + 1 + 4 + 4 + 8 + kLineSize,
                            "touche superblock slot-count mismatch",
                            [&](auto &l) {
                    io.boolean(l.valid);
                    io.boolean(l.dirty);
                    io.boolean(l.compressed);
                    io.u32(l.costBits);
                    io.u32(l.sig, 1u << comp::SigCodec::kSignatureBits,
                           "touche signature out of range");
                    io.u64(l.lineNumber);
                    io.bytes(l.data.bytes.data(), kLineSize);
                    bool compressed = false;
                    io.check(!l.valid ||
                                 (costOf(l.data, &compressed) ==
                                      l.costBits &&
                                  compressed == l.compressed),
                             "touche slot cost disagrees with its data");
                });
                io.check(!b.valid || holdsDistinctLines(b, lines_per_sb),
                         "touche superblock slots hold a line outside "
                         "it, or one line twice");
            });
        });
    });
}

bool
ToucheCache::holdsDistinctLines(const SuperBlock &block,
                                unsigned lines_per_sb)
{
    for (std::size_t i = 0; i < block.slots.size(); i++) {
        const Slot &slot = block.slots[i];
        if (!slot.valid)
            continue;
        if (slot.lineNumber / lines_per_sb != block.tag)
            return false;
        for (std::size_t j = 0; j < i; j++) {
            if (block.slots[j].valid &&
                block.slots[j].lineNumber == slot.lineNumber)
                return false;
        }
    }
    return true;
}

void
ToucheCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
ToucheCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace cache
} // namespace morc
