#include "cache/sc2.hh"

#include "check/check.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

Sc2Cache::Sc2Cache() : Sc2Cache(Config{}) {}

Sc2Cache::Sc2Cache(const Config &cfg)
    : cfg_(cfg), sampler_(cfg.dictionarySymbols)
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
Sc2Cache::lineImage(const CacheLine &data, bool compressed,
                    BitWriter &out) const
{
    if (compressed) {
        for (unsigned i = 0; i < kWordsPerLine; i++)
            table_.encode(data.word32(i), out);
    } else {
        energy::rawImage(data, out);
    }
}

std::uint64_t
Sc2Cache::setOf(Addr addr) const
{
    return splitmix64(lineNumber(addr)) & (numSets_ - 1);
}

std::uint32_t
Sc2Cache::lineBits(const CacheLine &data) const
{
    std::uint32_t bits = 0;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        bits += table_.bitsFor(data.word32(i));
    return bits;
}

void
Sc2Cache::maybeRetrain()
{
    fillsSinceTrain_++;
    if (!trained_) {
        if (fillsSinceTrain_ >= cfg_.warmupFills) {
            table_ = sampler_.train();
            trainFreqs_ = sampler_.freqs();
            trained_ = true;
            fillsSinceTrain_ = 0;
        }
        return;
    }
    if (fillsSinceTrain_ >= cfg_.retrainInterval) {
        sampler_.decay();
        table_ = sampler_.train();
        trainFreqs_ = sampler_.freqs();
        stats_.retrainings++;
        fillsSinceTrain_ = 0;
    }
}

ReadResult
Sc2Cache::read(Addr addr)
{
    stats_.reads++;
    ReadResult r;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);
    for (auto &line : set.lines) {
        if (line.tag != tag)
            continue;
        stats_.readHits++;
        r.hit = true;
        r.data = line.data;
        if (line.compressed) {
            r.extraLatency = cfg_.decompressionLatency;
            chargeDecompression(r, 1, kLineSize);
        }
        line.lastUse = ++useClock_;
        return r;
    }
    return r;
}

FillResult
Sc2Cache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    FillResult result;
    Set &set = sets_[setOf(addr)];
    const Addr tag = lineNumber(addr);

    sampler_.observe(data);
    maybeRetrain();

    const unsigned max_segments = kLineSize / cfg_.segmentBytes;
    unsigned segments = max_segments;
    bool compressed = false;
    if (trained_) {
        segments = static_cast<unsigned>(
            divCeil(divCeil(lineBits(data), 8), cfg_.segmentBytes));
        if (segments < max_segments) {
            compressed = true;
            stats_.linesCompressed++;
            result.linesCompressed++;
        } else {
            segments = max_segments;
        }
    }

    // Drop any stale copy, then make room. The replaced copy's image is
    // re-encoded under the *current* table — after a retraining this is
    // an approximation of the bits that were on the cells, but a
    // deterministic one.
    bool hadData = false;
    BitWriter oldImage;
    for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
        if (it->tag == tag) {
            dirty |= it->dirty;
            hadData = true;
            lineImage(it->data, it->compressed, oldImage);
            set.lines.erase(it);
            valid_--;
            break;
        }
    }

    const unsigned budget = cfg_.ways * kLineSize / cfg_.segmentBytes;
    const unsigned max_tags = cfg_.ways * cfg_.tagFactor;
    auto used = [&] {
        unsigned sum = 0;
        for (const auto &l : set.lines)
            sum += l.segments;
        return sum;
    };
    while (used() + segments > budget || set.lines.size() + 1 > max_tags) {
        auto victim = set.lines.begin();
        for (auto it = set.lines.begin(); it != set.lines.end(); ++it) {
            if (it->lastUse < victim->lastUse)
                victim = it;
        }
        if (victim->dirty) {
            result.writebacks.push_back(
                {victim->tag << kLineShift, victim->data});
            stats_.victimWritebacks++;
            if (victim->compressed)
                chargeDecompression(result, 1, kLineSize);
        }
        set.lines.erase(victim);
        valid_--;
    }

    LineEntry entry;
    entry.tag = tag;
    entry.dirty = dirty;
    entry.compressed = compressed;
    entry.segments = segments;
    entry.lastUse = ++useClock_;
    entry.data = data;
    BitWriter newImage;
    lineImage(data, compressed, newImage);
    chargeImageWear(setOf(addr), 0, hadData, oldImage, newImage);
    set.lines.push_back(entry);
    valid_++;
    return result;
}

check::AuditReport
Sc2Cache::audit() const
{
    check::AuditReport r;
    const unsigned budget = cfg_.ways * kLineSize / cfg_.segmentBytes;
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
            total_valid++;
            used += l.segments;
            r.require(setOf(l.tag << kLineShift) == s,
                      "set %llu entry %zu holds tag %llu that indexes "
                      "set %llu",
                      static_cast<unsigned long long>(s), i,
                      static_cast<unsigned long long>(l.tag),
                      static_cast<unsigned long long>(
                          setOf(l.tag << kLineShift)));
            r.require(l.segments >= 1 && l.segments <= max_segments,
                      "set %llu tag %llu spans %u segments (want 1..%u)",
                      static_cast<unsigned long long>(s),
                      static_cast<unsigned long long>(l.tag), l.segments,
                      max_segments);
            r.require(!l.compressed || trained_,
                      "set %llu tag %llu stored compressed before the "
                      "dictionary was trained",
                      static_cast<unsigned long long>(s),
                      static_cast<unsigned long long>(l.tag));
            r.require(l.compressed == (l.segments < max_segments),
                      "set %llu tag %llu compressed flag %d disagrees "
                      "with %u/%u segments",
                      static_cast<unsigned long long>(s),
                      static_cast<unsigned long long>(l.tag),
                      l.compressed ? 1 : 0, l.segments, max_segments);
            for (std::size_t j = i + 1; j < set.lines.size(); j++) {
                r.require(set.lines[j].tag != l.tag,
                          "set %llu holds duplicate tag %llu at entries "
                          "%zu and %zu",
                          static_cast<unsigned long long>(s),
                          static_cast<unsigned long long>(l.tag), i, j);
            }
        }
        r.require(used <= budget, "set %llu uses %u segments, budget %u",
                  static_cast<unsigned long long>(s), used, budget);
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
Sc2Cache::walk(Self &self, IO &io)
{
    io.section("SC2 ", [&] {
        const char *geometry = "SC2 cache geometry mismatch";
        io.expect(self.cfg_.capacityBytes, geometry);
        io.expect(self.cfg_.ways, geometry);
        io.expect(self.cfg_.tagFactor, geometry);
        io.expect(self.cfg_.segmentBytes, geometry);
        io.expect(self.cfg_.dictionarySymbols, geometry);
        io.u64(self.useClock_);
        io.u64(self.valid_);
        io.boolean(self.trained_);
        io.u64(self.fillsSinceTrain_);
        io.part(self.stats_);
        io.part(self.wear_);
        io.part(self.sampler_);
        // The table itself is derived state: build() is deterministic,
        // so storing the train-time counts is enough to reproduce it.
        comp::ValueSampler::walkFreqMap(self.trainFreqs_, io);
        io.fixedVec(self.sets_, 8, geometry, [&](auto &set) {
            io.vec(set.lines, 8 + 2 + 4 + 8 + kLineSize, [&](auto &l) {
                io.u64(l.tag);
                io.boolean(l.dirty);
                io.boolean(l.compressed);
                io.u32(l.segments);
                io.u64(l.lastUse);
                io.bytes(l.data.bytes.data(), kLineSize);
            });
        });
    });
}

void
Sc2Cache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Sc2Cache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
    if (!d.ok())
        return;
    table_ = trained_
                 ? comp::HuffmanTable::build(trainFreqs_,
                                             cfg_.dictionarySymbols)
                 : comp::HuffmanTable{};
}

} // namespace cache
} // namespace morc
