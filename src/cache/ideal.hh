/**
 * @file
 * Ideal compressed caches for the Figure 2 limit study.
 *
 * Per the paper's footnote: a set-based 128 KB cache whose lines are
 * compressed into 512-byte sets as much as possible, LRU-evicted, with
 * line cost given by ideal word deduplication (intra-line or across the
 * whole cache) plus significance-based truncation, and zero metadata.
 */

#ifndef MORC_CACHE_IDEAL_HH
#define MORC_CACHE_IDEAL_HH

#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "compress/oracle.hh"

namespace morc {
namespace cache {

/** Dedup scope of the oracle. */
enum class OracleScope
{
    IntraLine,
    InterLine
};

/** Limit-study cache; not a realizable design. */
class IdealCache : public Llc
{
  public:
    IdealCache(OracleScope scope, std::uint64_t capacity_bytes = 128 * 1024,
               unsigned set_bytes = 512);

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return capacity_; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

    std::string
    name() const override
    {
        return scope_ == OracleScope::IntraLine ? "Oracle-Intra"
                                                : "Oracle-Inter";
    }

  private:
    struct LineEntry
    {
        Addr tag;
        bool dirty;
        std::uint32_t bits;
        std::uint64_t lastUse;
        CacheLine data;
    };

    struct Set
    {
        std::vector<LineEntry> lines;
        std::uint64_t usedBits = 0;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr addr) const;
    std::uint32_t costOf(const CacheLine &data) const;

    OracleScope scope_;
    std::uint64_t capacity_;
    std::uint64_t setBits_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from setBits_
    std::vector<Set> sets_;
    comp::OracleDictionary dict_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_IDEAL_HH
