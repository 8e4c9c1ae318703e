/**
 * @file
 * Private per-core L1 data cache (Table 5: 32 KB, 4-way, 64 B lines,
 * single-cycle, write-back write-allocate).
 */

#ifndef MORC_SIM_L1_HH
#define MORC_SIM_L1_HH

#include <optional>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace morc {
namespace sim {

/** A line displaced from the L1. */
struct L1Victim
{
    Addr addr;
    /** The way's stored bytes: stale for a line dirtied by markDirty()
     *  or fillDirty() (see L1Cache). */
    CacheLine data;
    bool dirty;
};

/**
 * Small set-associative write-back L1.
 *
 * A way holds its line's bytes while the line is clean, or when a store
 * wrote them through update() or fill(). A store through markDirty() or
 * fillDirty() records no bytes: the owner can produce them (sim::System
 * synthesizes them from the line's version) and does so when the line
 * leaves, and withDirtyBytes() fills them in for a snapshot.
 */
class L1Cache
{
  public:
    L1Cache(std::uint64_t capacity_bytes = 32 * 1024, unsigned ways = 4)
        : ways_(ways), numSets_(capacity_bytes / kLineSize / ways)
    {
        store_.resize(numSets_ * ways_);
    }

    /** Look up @p addr; updates recency. */
    bool
    lookup(Addr addr)
    {
        Way *w = find(addr);
        if (w) {
            w->lastUse = ++clock_;
            return true;
        }
        return false;
    }

    /** Mark a resident line dirty without its bytes (store hit). */
    void
    markDirty(Addr addr)
    {
        if (Way *w = find(addr)) {
            w->dirty = true;
            w->lastUse = ++clock_;
        }
    }

    /** Overwrite a resident line's data and mark it dirty (store hit). */
    void
    update(Addr addr, const CacheLine &data)
    {
        if (Way *w = find(addr)) {
            w->data = data;
            w->dirty = true;
            w->lastUse = ++clock_;
        }
    }

    /** Stored bytes of a resident clean line; nullptr when the line is
     *  absent or dirty (its bytes may not be held). */
    const CacheLine *
    peek(Addr addr)
    {
        Way *w = find(addr);
        return w && !w->dirty ? &w->data : nullptr;
    }

    /** Allocate @p addr; returns the displaced victim if one existed. */
    std::optional<L1Victim>
    fill(Addr addr, const CacheLine &data, bool dirty)
    {
        std::optional<L1Victim> out;
        Way &w = allocate(addr, dirty, out);
        w.data = data;
        return out;
    }

    /** Allocate @p addr dirty without its bytes (store miss). */
    std::optional<L1Victim>
    fillDirty(Addr addr)
    {
        std::optional<L1Victim> out;
        allocate(addr, true, out);
        return out;
    }

    /** A copy whose dirty ways hold @p bytes_of(line address): the
     *  bytes a snapshot saves for lines stored without them. */
    template <typename BytesOf>
    L1Cache
    withDirtyBytes(BytesOf &&bytes_of) const
    {
        L1Cache copy = *this;
        for (Way &w : copy.store_) {
            if (w.valid && w.dirty)
                w.data = bytes_of(w.tag << kLineShift);
        }
        return copy;
    }

    /** Geometry fingerprint plus every way's contents. */
    void save(snap::Serializer &s) const { walk(*this, s); }

    /** Restore into an identically sized L1. */
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
        CacheLine data{};
    };

    /** Claim the LRU (or first invalid) way of @p addr's set for it,
     *  reporting a valid occupant in @p out. The way keeps its old
     *  bytes until the caller writes new ones. */
    Way &
    allocate(Addr addr, bool dirty, std::optional<L1Victim> &out)
    {
        const std::uint64_t set = setOf(addr);
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_; i++) {
            Way &w = store_[set * ways_ + i];
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (!victim || w.lastUse < victim->lastUse)
                victim = &w;
        }
        if (victim->valid) {
            out = L1Victim{victim->tag << kLineShift, victim->data,
                           victim->dirty};
        }
        victim->tag = lineNumber(addr);
        victim->valid = true;
        victim->dirty = dirty;
        victim->lastUse = ++clock_;
        return *victim;
    }

    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        const char *geometry = "L1 geometry mismatch";
        io.expect(self.ways_, geometry);
        io.expect(self.numSets_, geometry);
        io.u64(self.clock_);
        io.fixedVec(self.store_, 8 + 1 + 1 + 8 + kLineSize, geometry,
                    [&](auto &w) {
                        io.u64(w.tag);
                        io.boolean(w.valid);
                        io.boolean(w.dirty);
                        io.u64(w.lastUse);
                        io.bytes(w.data.bytes.data(), kLineSize);
                    });
    }

    std::uint64_t
    setOf(Addr addr) const
    {
        // Real L1s index by address bits; this preserves the spatial
        // clustering of fills and therefore of evictions.
        return lineNumber(addr) & (numSets_ - 1);
    }

    Way *
    find(Addr addr)
    {
        const std::uint64_t set = setOf(addr);
        const Addr tag = lineNumber(addr);
        for (unsigned i = 0; i < ways_; i++) {
            Way &w = store_[set * ways_ + i];
            if (w.valid && w.tag == tag)
                return &w;
        }
        return nullptr;
    }

    unsigned ways_;
    std::uint64_t numSets_;
    std::vector<Way> store_;
    std::uint64_t clock_ = 0;
};

} // namespace sim
} // namespace morc

#endif // MORC_SIM_L1_HH
