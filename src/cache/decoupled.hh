/**
 * @file
 * Decoupled Compressed Cache (Sardashti & Wood, MICRO 2013), with C-Pack
 * per the MORC paper's methodology.
 *
 * Organization: tags are *super-block* tags — one tag covers four
 * address-consecutive lines — so tracking 4x the lines costs no extra
 * tags (Table 4 shows 0% tag overhead). Data lives in 8-byte segments
 * that are individually pointed to (decoupled), so lines need not be
 * contiguous: there is no compaction and fragmentation is bounded by the
 * segment granule. The per-segment back-pointers are the scheme's
 * metadata cost.
 */

#ifndef MORC_CACHE_DECOUPLED_HH
#define MORC_CACHE_DECOUPLED_HH

#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "compress/cpack.hh"

namespace morc {
namespace cache {

/** Decoupled compressed cache with super-block tags. */
class DecoupledCache : public Llc
{
  public:
    struct Config
    {
        std::uint64_t capacityBytes = 128 * 1024;
        unsigned ways = 8;              // super-tags per set
        unsigned linesPerSuperBlock = 4;
        unsigned segmentBytes = 8;
        unsigned decompressionLatency = 4;
    };

    explicit DecoupledCache(const Config &cfg);
    DecoupledCache();

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return cfg_.capacityBytes; }
    std::string name() const override { return "Decoupled"; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

  private:
    struct SubLine
    {
        bool valid = false;
        bool dirty = false;
        bool compressed = false;
        unsigned segments = 0;
        CacheLine data{};
    };

    struct SuperBlock
    {
        Addr tag = 0; // super-block number
        bool valid = false;
        std::uint64_t lastUse = 0;
        std::vector<SubLine> lines;
    };

    struct Set
    {
        std::vector<SuperBlock> blocks;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr super_tag) const;
    unsigned usedSegments(const Set &set) const;
    void evictBlock(Set &set, SuperBlock &block, FillResult &result);

    Config cfg_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::vector<Set> sets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_DECOUPLED_HH
