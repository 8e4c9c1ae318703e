/**
 * @file
 * Touché-specific regression tests: the signature false-positive and
 * impostor-eviction paths, WritebackGrowth-style re-compaction under
 * worst-case overwrite growth, the audit/mutation hook, wear charging,
 * exact snapshot round-trips, and restores that must reject hostile
 * snapshots an insert would crash on.
 *
 * The scheme-generic contract (LRU, dirty writebacks, audit-after-
 * traffic, snapshot lockstep across all schemes) lives in
 * cache_test.cc's parameterized suite; everything here exercises
 * behavior only Touché has.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cache/touche.hh"
#include "compress/cpack.hh"
#include "compress/sigcodec.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace morc {
namespace cache {
namespace {

CacheLine
patternLine(std::uint64_t tag)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, static_cast<std::uint32_t>(splitmix64(tag * 16 + i)));
    return l;
}

CacheLine
compressibleLine(std::uint32_t w)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, i % 4 == 0 ? w : 0);
    return l;
}

/** First superblock whose four lines contain a signature collision:
 *  the two colliding line numbers. The 8-bit signature collides in
 *  ~2.3% of superblocks, so the scan terminates almost immediately. */
std::pair<Addr, Addr>
collidingSiblings()
{
    for (Addr group = 0;; group++) {
        for (unsigned i = 0; i < 4; i++) {
            for (unsigned j = i + 1; j < 4; j++) {
                const Addr a = group * 4 + i;
                const Addr b = group * 4 + j;
                if (comp::SigCodec::signatureOf(a) ==
                    comp::SigCodec::signatureOf(b))
                    return {a, b};
            }
        }
    }
}

TEST(Touche, SuperBlockPacksCompressibleSiblings)
{
    ToucheCache c;
    // Four compressible lines of one superblock share a single tag
    // entry and a single 64-byte data entry.
    for (Addr n = 0; n < 4; n++)
        c.insert(n << kLineShift,
                 compressibleLine(static_cast<std::uint32_t>(n)), false);
    EXPECT_EQ(c.validLines(), 4u);
    for (Addr n = 0; n < 4; n++) {
        auto r = c.read(n << kLineShift);
        EXPECT_TRUE(r.hit);
        EXPECT_EQ(r.data,
                  compressibleLine(static_cast<std::uint32_t>(n)));
        // A compressed hit pays the decompress-and-verify round trip.
        EXPECT_EQ(r.extraLatency, ToucheCache::Config{}.decompressionLatency);
    }
    EXPECT_TRUE(c.audit().ok());
}

TEST(Touche, WritebackGrowthRecompaction)
{
    // Worst-case overwrite growth: a packed superblock of four dirty
    // compressible lines, then one line rewritten incompressible. The
    // grown line needs the whole 512-bit entry, so re-compaction must
    // evict every sibling — each with its latest data intact.
    ToucheCache c;
    for (Addr n = 0; n < 4; n++)
        c.insert(n << kLineShift,
                 compressibleLine(static_cast<std::uint32_t>(n)), true);
    ASSERT_EQ(c.validLines(), 4u);
    ASSERT_EQ(c.stats().recompactions, 0u);

    auto fill = c.insert(2 << kLineShift, patternLine(99), true);
    EXPECT_EQ(c.stats().recompactions, 1u);
    EXPECT_EQ(c.validLines(), 1u);
    ASSERT_EQ(fill.writebacks.size(), 3u);
    std::map<Addr, CacheLine> written;
    for (const auto &wb : fill.writebacks)
        written[wb.addr] = wb.data;
    for (Addr n = 0; n < 4; n++) {
        if (n == 2)
            continue;
        ASSERT_TRUE(written.count(n << kLineShift)) << "line " << n;
        EXPECT_EQ(written[n << kLineShift],
                  compressibleLine(static_cast<std::uint32_t>(n)));
    }
    // The survivor serves the overwritten data, siblings miss.
    auto r = c.read(2 << kLineShift);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.data, patternLine(99));
    EXPECT_FALSE(c.read(0 << kLineShift).hit);
    EXPECT_TRUE(c.audit().ok());
}

TEST(Touche, SignatureCollisionEvictsImpostor)
{
    const auto [a, b] = collidingSiblings();
    ToucheCache c;
    c.insert(a << kLineShift, patternLine(1), true);
    ASSERT_EQ(c.stats().sigEvictions, 0u);
    // Two same-signature lines cannot coexist in a way: inserting the
    // collider must first evict the resident impostor (dirty, so its
    // data comes back out).
    auto fill = c.insert(b << kLineShift, patternLine(2), false);
    EXPECT_EQ(c.stats().sigEvictions, 1u);
    ASSERT_EQ(fill.writebacks.size(), 1u);
    EXPECT_EQ(fill.writebacks[0].addr, a << kLineShift);
    EXPECT_EQ(fill.writebacks[0].data, patternLine(1));
    EXPECT_FALSE(c.read(a << kLineShift).hit);
    EXPECT_TRUE(c.read(b << kLineShift).hit);
    EXPECT_TRUE(c.audit().ok());
}

TEST(Touche, FalsePositiveDecompressVerifyMisses)
{
    const auto [a, b] = collidingSiblings();
    ToucheCache c;
    c.insert(a << kLineShift, compressibleLine(7), false);
    ASSERT_EQ(c.stats().sigFalsePositives, 0u);
    // Reading the absent collider matches the resident signature: the
    // embedded-tag verify rejects it, charging the decompression but
    // never serving wrong data.
    auto r = c.read(b << kLineShift);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(c.stats().sigFalsePositives, 1u);
    EXPECT_EQ(r.linesDecompressed, 1u);
    EXPECT_EQ(r.extraLatency, ToucheCache::Config{}.decompressionLatency);
    // The resident line is untouched.
    auto ok = c.read(a << kLineShift);
    EXPECT_TRUE(ok.hit);
    EXPECT_EQ(ok.data, compressibleLine(7));
}

TEST(Touche, AuditDetectsCorruptedSignature)
{
    ToucheCache c;
    Rng rng(11);
    for (int i = 0; i < 500; i++)
        c.insert(rng.below(4096) << kLineShift, patternLine(rng.next()),
                 rng.chance(2));
    ASSERT_TRUE(c.audit().ok());
    ASSERT_TRUE(c.debugCorruptSignature(7));
    const auto report = c.audit();
    EXPECT_FALSE(report.ok());
    EXPECT_GE(report.violations(), 1u);
}

TEST(Touche, CorruptSignatureNeedsAResidentLine)
{
    ToucheCache c;
    EXPECT_FALSE(c.debugCorruptSignature(7));
    EXPECT_TRUE(c.audit().ok());
}

TEST(Touche, WearChargedFromEmittedBitstreams)
{
    ToucheCache c;
    Rng rng(5);
    for (int i = 0; i < 1000; i++)
        c.insert(rng.below(2048) << kLineShift, patternLine(rng.next()),
                 rng.chance(2));
    const auto &st = c.stats();
    EXPECT_GT(st.cellBitsWritten, 0u);
    EXPECT_GT(st.cellBitFlips, 0u);
    const auto wear = c.wearSnapshot();
    EXPECT_EQ(wear.totalBitsWritten(), st.cellBitsWritten);
    EXPECT_EQ(wear.totalBitFlips(), st.cellBitFlips);
    EXPECT_GE(wear.imbalance(), 1.0);
}

TEST(Touche, SnapshotRoundTripLockstep)
{
    ToucheCache c;
    Rng rng(23);
    const auto step = [&](ToucheCache &t, std::uint64_t r) {
        const Addr a = (r % 4096) << kLineShift;
        if (r & 1)
            t.insert(a, patternLine(r), (r & 2) != 0);
        else
            t.read(a);
    };
    for (int i = 0; i < 4000; i++)
        step(c, rng.next());

    snap::Serializer s;
    c.saveState(s);
    ToucheCache twin;
    snap::Deserializer d(s.frame());
    twin.restoreState(d);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(twin.validLines(), c.validLines());
    EXPECT_EQ(twin.stats(), c.stats());
    EXPECT_TRUE(twin.audit().ok());

    // Divergence after restore means hidden state escaped the frame:
    // run both caches in lockstep and require identical behavior.
    for (int i = 0; i < 4000; i++) {
        const std::uint64_t r = rng.next();
        step(c, r);
        step(twin, r);
    }
    EXPECT_EQ(twin.validLines(), c.validLines());
    EXPECT_EQ(twin.stats(), c.stats());
}

/** One valid slot of a hand-written superblock: a zero line, with the
 *  cost and compressed flag insert would derive for it. */
struct HostileSlot
{
    std::uint32_t sig = 0;
    Addr line = 0;
    std::uint32_t extraCost = 0; // added to the derived cost
};

/**
 * A TCHE snapshot written by hand in the real layout: a cache of
 * @p cfg's geometry that is empty except that set 0 holds
 * @p set0_blocks superblocks, the first of which (super-tag @p tag) is
 * valid and holds @p slots when any are given. With the defaults it is
 * byte for byte a fresh cache's saveState(), so each hostile variant
 * differs from real bytes only where it means to.
 */
std::vector<std::uint8_t>
toucheFrame(const ToucheCache::Config &cfg, unsigned set0_blocks,
            Addr tag = 0, const std::vector<HostileSlot> &slots = {})
{
    const std::uint64_t sets = cfg.capacityBytes / kLineSize / cfg.ways;
    const std::uint32_t zero_cost =
        comp::CpackEncoder::lineBits(CacheLine{}) +
        ToucheCache::kEmbeddedTagBits;
    const CacheLine zero{};
    snap::Serializer s;
    s.beginSection("TCHE");
    s.u64(cfg.capacityBytes);
    s.u32(cfg.ways);
    s.u32(cfg.linesPerSuperBlock);
    s.u64(0); // clock
    s.u64(0); // valid count
    LlcStats{}.save(s);
    s.beginSection("WEAR");
    s.u64(sets);
    s.u64(cfg.ways);
    s.vecU64(std::vector<std::uint64_t>(sets * cfg.ways));
    s.vecU64(std::vector<std::uint64_t>(sets));
    for (int i = 0; i < 3; i++)
        s.u64(0);
    s.endSection();
    s.u64(sets);
    for (std::uint64_t set = 0; set < sets; set++) {
        const unsigned blocks = set == 0 ? set0_blocks : cfg.ways;
        s.u64(blocks);
        for (unsigned b = 0; b < blocks; b++) {
            const bool hostile = set == 0 && b == 0 && !slots.empty();
            s.u64(hostile ? tag : 0);
            s.boolean(hostile);
            s.u64(0); // lastUse
            for (int stream = 0; stream < 2; stream++) {
                s.u64(0);     // signature stream, then data image: bits
                s.vecU64({}); // ... and words
            }
            s.u64(cfg.linesPerSuperBlock);
            for (unsigned i = 0; i < cfg.linesPerSuperBlock; i++) {
                const bool valid = hostile && i < slots.size();
                s.boolean(valid);
                s.boolean(false); // dirty
                s.boolean(valid); // a zero line compresses
                s.u32(valid ? zero_cost + slots[i].extraCost : 0);
                s.u32(valid ? slots[i].sig : 0);
                s.u64(valid ? slots[i].line : 0);
                s.bytes(zero.bytes.data(), kLineSize);
            }
        }
    }
    s.endSection();
    return s.frame();
}

/** One set of eight superblocks: small enough to write by hand. */
ToucheCache::Config
oneSetConfig()
{
    ToucheCache::Config cfg;
    cfg.capacityBytes = 8 * kLineSize;
    return cfg;
}

bool
restores(const std::vector<std::uint8_t> &frame)
{
    ToucheCache c(oneSetConfig());
    snap::Deserializer d(frame);
    c.restoreState(d);
    return d.ok();
}

TEST(Touche, HandWrittenSnapshotMatchesFreshSave)
{
    const ToucheCache::Config cfg = oneSetConfig();
    ToucheCache fresh(cfg);
    snap::Serializer s;
    fresh.saveState(s);
    EXPECT_EQ(toucheFrame(cfg, cfg.ways), s.frame());
    EXPECT_TRUE(restores(toucheFrame(cfg, cfg.ways, 5, {{0, 20}})));
}

// Each rejected snapshot below was accepted by a restore that did not
// check it, and the next insert into set 0 then crashed or indexed out
// of range.

TEST(Touche, RestoreRejectsSetWithoutSuperblocks)
{
    EXPECT_FALSE(restores(toucheFrame(oneSetConfig(), 0)));
}

TEST(Touche, RestoreRejectsSetWithExtraSuperblocks)
{
    const ToucheCache::Config cfg = oneSetConfig();
    EXPECT_FALSE(restores(toucheFrame(cfg, cfg.ways + 1)));
}

TEST(Touche, RestoreRejectsSignatureWiderThanItsCode)
{
    const ToucheCache::Config cfg = oneSetConfig();
    EXPECT_FALSE(restores(toucheFrame(
        cfg, cfg.ways, 5, {{1u << comp::SigCodec::kSignatureBits, 20}})));
}

TEST(Touche, RestoreRejectsSlotCostTheDataDoesNotDerive)
{
    // The next repack of the way re-encodes the slot and checks its
    // stored cost (MORC_DCHECK, fatal in audit builds).
    const ToucheCache::Config cfg = oneSetConfig();
    EXPECT_FALSE(restores(toucheFrame(cfg, cfg.ways, 5, {{0, 20, 8}})));
}

TEST(Touche, RestoreRejectsSlotsHoldingOtherSuperblocksLines)
{
    // Four valid slots, none of them a line of superblock 5: an insert
    // of line 20 finds neither its own slot nor a free one.
    const ToucheCache::Config cfg = oneSetConfig();
    std::vector<HostileSlot> slots;
    for (Addr line : {100, 101, 102, 103})
        slots.push_back({comp::SigCodec::signatureOf(line), line});
    EXPECT_FALSE(restores(toucheFrame(cfg, cfg.ways, 5, slots)));
}

} // namespace
} // namespace cache
} // namespace morc
