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
#include <string>
#include <vector>

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

    std::uint64_t dramLines() const { return dram_.lines; }
    std::uint64_t ssdLines() const { return ssd_.lines; }
    std::uint64_t dramUsedBytes() const { return dram_.usedBytes; }
    std::uint64_t ssdUsedBytes() const { return ssd_.usedBytes; }

    /** Tier-exclusivity + byte/LRU-accounting invariants. */
    check::AuditReport audit() const override;

    void registerProbes(telemetry::Registry &reg,
                        const std::string &prefix);

    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    /** A resident line: a slab entry linked into its tier's LRU list. */
    struct Entry
    {
        Addr addr = 0;
        std::uint64_t use = 0;     // global LRU stamp, unique per touch
        std::uint32_t bytes = 0;   // stored size, [1, 64]
        std::uint32_t prev = kNil; // next older line
        std::uint32_t next = kNil; // next newer line (or free-list link)
    };

    /** Index bucket: a resident line's address and slab slot. */
    struct Bucket
    {
        Addr addr = 0;
        std::uint32_t slot = kNil; // kNil: empty
    };

    /**
     * One tier: a slab of entries, an intrusive doubly linked LRU list
     * through them (head = oldest) and an open-addressed index from
     * line address to slab slot (linear probing, backward-shift
     * deletion). The LRU is exact, not approximate: every stamp comes
     * from the store's one clock, and every insert and touch takes a
     * fresh stamp and moves its line to the tail, so the list is in
     * stamp order and its head is the least recently used line. The
     * tables start empty and double when full; nothing in a walk
     * (audit, snapshot) depends on slot numbers or index layout.
     */
    struct Tier
    {
        std::vector<Entry> slab;
        std::vector<Bucket> index; // power-of-two size, or empty
        std::uint32_t freeHead = kNil; // freed slots, linked by next
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint64_t lines = 0;
        std::uint64_t usedBytes = 0;

        /** Slot of @p addr, or kNil. */
        std::uint32_t find(Addr addr) const;
        /** Add a line absent from the tier, as its newest. */
        void add(Addr addr, std::uint32_t bytes, std::uint64_t use);
        /** Drop the line in @p slot and free the slot. */
        void remove(std::uint32_t slot);
        /** Make the line in @p slot the newest. */
        void moveToTail(std::uint32_t slot);

      private:
        std::size_t home(Addr addr) const;
        void link(std::uint32_t slot);
        void unlink(std::uint32_t slot);
        void growIndex();
    };

    /** One line as a snapshot holds it. */
    struct Resident
    {
        Addr addr = 0;
        std::uint32_t bytes = 0;
        std::uint64_t use = 0;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    static std::vector<Resident> byAddress(const Tier &t);
    void rebuild(Tier &t, std::vector<Resident> &rows,
                 snap::Deserializer &d);
    std::uint32_t storedBytes(const CacheLine &data) const;
    void touch(Tier &t, std::uint32_t slot);
    void insertInto(Tier &t, std::uint64_t budget, Addr addr,
                    std::uint32_t bytes, bool demote_victims_to_ssd);
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
