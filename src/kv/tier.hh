/**
 * @file
 * DRAM/SSD-style two-tier backing store for the KV-serving subsystem.
 *
 * The front cache (any `cache::Llc` scheme) sits above this store; a
 * front miss fetches through it. The store models capacity and
 * placement only — line *contents* are always synthesized functionally
 * from the tenant value models (the same design as sim::System's
 * functional memory), so a tier entry is metadata: the bytes it charges
 * against the tier's budget and its LRU stamp.
 *
 * Placement policy (ZipCache-style inclusion-free hierarchy):
 *   - origin fetches fill DRAM,
 *   - an SSD hit promotes the line to DRAM (exclusive tiers: the SSD
 *     copy is dropped),
 *   - a DRAM eviction demotes the victim to SSD,
 *   - an SSD eviction drops the line (it remains reconstructible from
 *     the origin at origin latency).
 *
 * Per-tier compression stores each line at its FPC-compressed size
 * instead of 64 B, so a compressed tier holds proportionally more
 * lines in the same byte budget — earned from the same value structure
 * the front cache compresses.
 */

#ifndef MORC_KV_TIER_HH
#define MORC_KV_TIER_HH

#include <cstdint>
#include <map>
#include <string>

#include "check/auditor.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "util/types.hh"

namespace morc {
namespace kv {

/** Where a fetch was served from. */
enum class TierLevel : std::uint8_t
{
    Dram = 0,
    Ssd = 1,
    Origin = 2,
};

const char *tierLevelName(TierLevel l);

struct TierConfig
{
    std::uint64_t dramBytes = 8ull << 20;
    std::uint64_t ssdBytes = 32ull << 20;

    /** Store lines at FPC-compressed size instead of 64 B. */
    bool dramCompressed = true;
    bool ssdCompressed = true;

    Cycles dramLatency = 120;
    Cycles ssdLatency = 2000;
    Cycles originLatency = 20000;
};

struct TierStats
{
    std::uint64_t dramHits = 0;
    std::uint64_t ssdHits = 0;
    std::uint64_t originFetches = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t ssdDrops = 0;
    std::uint64_t writebacks = 0;

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
};

/** Exclusive DRAM-over-SSD line store with per-tier compression. */
class TieredStore : public check::Auditable, public snap::Snapshottable
{
  public:
    explicit TieredStore(const TierConfig &cfg);

    struct FetchResult
    {
        Cycles latency = 0;
        TierLevel level = TierLevel::Origin;
    };

    /**
     * Serve a front-cache miss for @p addr whose current contents are
     * @p data (used only for compressed sizing). Applies promotion /
     * fill and returns the serving tier and its latency.
     */
    FetchResult fetch(Addr addr, const CacheLine &data);

    /** Accept a dirty line evicted by the front cache. */
    void writeback(Addr addr, const CacheLine &data);

    const TierStats &stats() const { return stats_; }
    const TierConfig &config() const { return cfg_; }

    std::uint64_t dramLines() const { return dram_.lines.size(); }
    std::uint64_t ssdLines() const { return ssd_.lines.size(); }
    std::uint64_t dramUsedBytes() const { return dram_.usedBytes; }
    std::uint64_t ssdUsedBytes() const { return ssd_.usedBytes; }

    /** Tier-exclusivity + byte/LRU-accounting invariants. */
    check::AuditReport audit() const override;

    void registerProbes(telemetry::Registry &reg,
                        const std::string &prefix);

    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

  private:
    struct Entry
    {
        std::uint32_t bytes = 0;
        std::uint64_t use = 0; // global LRU stamp, unique per touch
    };

    /** One tier: ordered line map plus an LRU index keyed by stamp.
     *  std::map keeps every walk (audit, snapshot) deterministic. */
    struct Tier
    {
        std::map<Addr, Entry> lines;
        std::map<std::uint64_t, Addr> lru;
        std::uint64_t usedBytes = 0;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint32_t storedBytes(const CacheLine &data,
                              bool compressed) const;
    void touch(Tier &t, Addr addr, Entry &e);
    void insertInto(Tier &t, std::uint64_t budget, Addr addr,
                    Entry e, bool demote_victims_to_ssd);
    void evictOver(Tier &t, std::uint64_t budget,
                   bool demote_victims_to_ssd);
    void auditTier(check::AuditReport &r, const Tier &t,
                   const char *name, std::uint64_t budget) const;

    TierConfig cfg_; // morc-analyze: allow(snapshot-completeness) construction-time config; restoreState() re-binds
    Tier dram_;
    Tier ssd_;
    std::uint64_t useClock_ = 0;
    TierStats stats_;
};

} // namespace kv
} // namespace morc

#endif // MORC_KV_TIER_HH
