/**
 * @file
 * Conventional set-associative, LRU, write-back LLC — the paper's
 * uncompressed baseline (Table 5: 8-way, 64 B lines).
 */

#ifndef MORC_CACHE_UNCOMPRESSED_HH
#define MORC_CACHE_UNCOMPRESSED_HH

#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {

/** Plain set-associative cache. */
class UncompressedCache : public Llc
{
  public:
    /**
     * @param capacity_bytes Total data capacity.
     * @param ways           Associativity.
     */
    UncompressedCache(std::uint64_t capacity_bytes, unsigned ways = 8);

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return capacity_; }
    std::string name() const override { return "Uncompressed"; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
        CacheLine data{};
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr addr) const;
    Way *find(Addr addr);

    std::uint64_t capacity_;
    unsigned ways_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from capacity_/ways_
    std::vector<Way> store_; // numSets_ x ways_
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_UNCOMPRESSED_HH
