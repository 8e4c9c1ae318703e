/**
 * @file
 * Touché signature-tag compressed cache (Hong et al., PAPERS.md).
 *
 * Touché reaches compressed-cache capacity from an *unmodified* tag
 * array: one tag entry covers a four-line superblock, and the lines
 * packed into the way's single 64-byte data entry are identified only
 * by short hashed signatures squeezed into the entry's unused bits
 * (comp::SigCodec). A lookup that matches a signature is merely a
 * probable hit — each compressed line travels with its full line
 * number, so the data is decompressed and *verified*; a collision
 * (false positive) costs the decompression round trip and reports a
 * miss, never wrong data. Two same-signature lines can never coexist
 * in a way (the lookup could not tell them apart), so inserting a
 * colliding line first evicts the resident impostor — the miss-repair
 * path.
 *
 * The data entry is re-packed whenever a line's compressed size
 * changes: an overwrite that grows evicts sibling lines until the
 * packed image fits the 64-byte budget again (re-compaction). Every
 * re-pack programs the NVM data entry; wear is charged from the
 * actual emitted bitstream against the entry's previous image
 * (energy/lifetime.hh).
 */

#ifndef MORC_CACHE_TOUCHE_HH
#define MORC_CACHE_TOUCHE_HH

#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "compress/cpack.hh"
#include "compress/sigcodec.hh"

namespace morc {
namespace cache {

/** Touché-style compressed cache behind an unmodified tag array. */
class ToucheCache : public Llc
{
  public:
    /** Full line number appended to each compressed line so a
     *  signature match can be verified after decompression. */
    static constexpr unsigned kEmbeddedTagBits =
        kPhysAddrBits - kLineShift;

    /** Data-entry budget per way, in bits (one uncompressed line). */
    static constexpr unsigned kWayBits = kLineSize * 8;

    struct Config
    {
        std::uint64_t capacityBytes = 128 * 1024;
        unsigned ways = 8;              // superblock tags per set
        unsigned linesPerSuperBlock = 4;
        unsigned decompressionLatency = 4;
    };

    explicit ToucheCache(const Config &cfg);
    ToucheCache();

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return cfg_.capacityBytes; }
    std::string name() const override { return "Touche"; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

    /** Adds the signature/collision catalog on top of the base set. */
    void
    registerProbes(telemetry::Registry &reg,
                   const std::string &prefix) override
    {
        Llc::registerProbes(reg, prefix);
        reg.counter(prefix + ".sig_false_positives", [this](Cycles) {
            return static_cast<double>(stats_.sigFalsePositives);
        });
        reg.counter(prefix + ".sig_evictions", [this](Cycles) {
            return static_cast<double>(stats_.sigEvictions);
        });
        reg.counter(prefix + ".recompactions", [this](Cycles) {
            return static_cast<double>(stats_.recompactions);
        });
    }

    /**
     * Mutation-test hook: flip one bit of one resident signature,
     * chosen by @p seed. audit() must report the inconsistency (the
     * signature no longer re-derives from the line number, and the
     * stored metadata stream disagrees). @return false when the cache
     * holds no valid line to corrupt.
     */
    bool debugCorruptSignature(std::uint64_t seed);

  private:
    struct Slot
    {
        bool valid = false;
        bool dirty = false;
        bool compressed = false;
        std::uint32_t costBits = 0; // data-entry bits incl. embedded tag
        std::uint16_t sig = 0;
        Addr lineNumber = 0;
        CacheLine data{};
    };

    struct SuperBlock
    {
        Addr tag = 0; // superblock number
        bool valid = false;
        std::uint64_t lastUse = 0;
        std::vector<Slot> slots;
        /** Signature metadata stream (tag-entry unused bits). */
        BitWriter sigStream;
        /** Last image programmed into the 512-bit data entry. */
        BitWriter image;
    };

    struct Set
    {
        std::vector<SuperBlock> blocks;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr super_tag) const;
    /** Valid slots hold distinct lines of @p block, so an insert into
     *  it always finds its own line or a free slot. */
    static bool holdsDistinctLines(const SuperBlock &block,
                                   unsigned lines_per_sb);
    std::uint32_t usedBits(const SuperBlock &block) const;
    /** Compressed cost of @p data (bits incl. embedded tag), and
     *  whether it is stored compressed at all. */
    static std::uint32_t costOf(const CacheLine &data, bool *compressed);
    void evictSlot(SuperBlock &block, std::size_t idx,
                   FillResult &result);
    void evictBlock(SuperBlock &block, FillResult &result);
    /** Emit the packed data-entry image of @p block's valid slots. */
    void packImage(const SuperBlock &block, BitWriter &out) const;
    /** Emit the signature metadata stream of @p block. */
    void packSigStream(const SuperBlock &block, BitWriter &out) const;
    /** Re-program the way: rebuild both streams and charge wear. */
    void repackWay(std::uint64_t set_idx, std::uint64_t way_idx,
                   SuperBlock &block);

    Config cfg_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::vector<Set> sets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_TOUCHE_HH
