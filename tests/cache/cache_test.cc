/**
 * @file
 * Tests for the baseline LLC models: uncompressed, Adaptive, Decoupled,
 * SC2, and the Figure 2 oracle caches, including restores that must
 * reject hostile snapshots an insert would crash on.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cache/adaptive.hh"
#include "cache/decoupled.hh"
#include "cache/ideal.hh"
#include "cache/overheads.hh"
#include "cache/sc2.hh"
#include "cache/touche.hh"
#include "cache/uncompressed.hh"
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

// ------------------------------------------------------------ Uncompressed

TEST(Uncompressed, MissThenHit)
{
    UncompressedCache c(64 * 1024);
    const Addr a = 0x1000;
    EXPECT_FALSE(c.read(a).hit);
    c.insert(a, patternLine(1), false);
    auto r = c.read(a);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.data, patternLine(1));
    EXPECT_EQ(r.extraLatency, 0u);
}

TEST(Uncompressed, CapacityIsBounded)
{
    UncompressedCache c(16 * 1024); // 256 lines
    for (Addr a = 0; a < 4096; a++)
        c.insert(a << kLineShift, patternLine(a), false);
    EXPECT_LE(c.validLines(), 256u);
    EXPECT_NEAR(c.compressionRatio(), 1.0, 0.01);
}

TEST(Uncompressed, DirtyVictimIsWrittenBack)
{
    UncompressedCache c(4 * 1024, 4); // 64 lines, 16 sets
    std::map<Addr, CacheLine> expected;
    Rng rng(3);
    std::uint64_t wbs = 0;
    for (int i = 0; i < 2000; i++) {
        const Addr a = rng.below(512) << kLineShift;
        const CacheLine l = patternLine(rng.next());
        expected[a] = l;
        wbs += c.insert(a, l, true).writebacks.size();
    }
    EXPECT_GT(wbs, 0u);
    // Every resident line must match the last inserted data.
    for (const auto &[a, l] : expected) {
        auto r = c.read(a);
        if (r.hit) {
            EXPECT_EQ(r.data, l);
        }
    }
}

TEST(Uncompressed, LruEvictsColdest)
{
    UncompressedCache c(64 * 64, 64); // one set, 64 ways
    for (Addr i = 0; i < 64; i++)
        c.insert(i << kLineShift, patternLine(i), false);
    // Touch all but line 7.
    for (Addr i = 0; i < 64; i++) {
        if (i != 7)
            c.read(i << kLineShift);
    }
    c.insert(999 << kLineShift, patternLine(999), false);
    EXPECT_FALSE(c.read(7 << kLineShift).hit);
    EXPECT_TRUE(c.read(8 << kLineShift).hit);
}

// ---------------------------------------------------------------- Adaptive

TEST(Adaptive, CompressesBeyondBaselineCapacity)
{
    AdaptiveCache c;
    // Highly compressible lines: should exceed 2048 resident lines.
    for (Addr a = 0; a < 6000; a++) {
        c.insert(a << kLineShift,
                 compressibleLine(static_cast<std::uint32_t>(a & 3)),
                 false);
    }
    EXPECT_GT(c.compressionRatio(), 1.2);
    EXPECT_LE(c.compressionRatio(), 2.01); // 2x tags cap the ratio
}

TEST(Adaptive, TagCapLimitsRatioToTwo)
{
    AdaptiveCache::Config cfg;
    AdaptiveCache c(cfg);
    for (Addr a = 0; a < 100000; a++)
        c.insert(a << kLineShift, CacheLine{}, false); // all-zero lines
    EXPECT_LE(c.compressionRatio(), 2.001);
    EXPECT_GT(c.compressionRatio(), 1.9);
}

TEST(Adaptive, IncompressibleStaysAtOne)
{
    AdaptiveCache c;
    Rng rng(9);
    for (Addr a = 0; a < 8000; a++)
        c.insert(a << kLineShift, patternLine(rng.next()), false);
    EXPECT_LE(c.compressionRatio(), 1.01);
}

TEST(Adaptive, HitReturnsLatestData)
{
    AdaptiveCache c;
    const Addr a = 0xabc0;
    c.insert(a, compressibleLine(5), false);
    c.insert(a, compressibleLine(9), true); // write-back update
    auto r = c.read(a);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, compressibleLine(9));
}

TEST(Adaptive, CompressedHitPaysDecompressionLatency)
{
    AdaptiveCache c;
    const Addr a = 0x40;
    c.insert(a, compressibleLine(1), false);
    auto r = c.read(a);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.extraLatency, 4u);
}

TEST(Adaptive, PredictorTurnsCompressionOff)
{
    // With incompressible data and repeated near-MRU hits to compressed
    // lines, the predictor should not go hugely positive.
    AdaptiveCache c;
    const std::int64_t before = c.predictor();
    c.insert(0x0, compressibleLine(1), false);
    for (int i = 0; i < 100; i++)
        c.read(0x0);
    EXPECT_LT(c.predictor(), before); // decompression penalties voted
}

TEST(Adaptive, TagPressureWritebackChargesDecompression)
{
    // One set of 8 ways x 2 tags: sixteen zero lines fit the data
    // budget, so the seventeenth insert drops the LRU entry for tag
    // pressure alone, writing its compressed dirty data back.
    AdaptiveCache::Config cfg;
    cfg.capacityBytes = 8 * kLineSize;
    AdaptiveCache c(cfg);
    for (Addr a = 0; a < 16; a++)
        c.insert(a << kLineShift, CacheLine{}, true);
    const LlcStats before = c.stats();
    const FillResult r = c.insert(16 << kLineShift, CacheLine{}, true);
    ASSERT_EQ(r.writebacks.size(), 1u);
    EXPECT_EQ(r.writebacks[0].addr, Addr{0});
    EXPECT_EQ(r.linesDecompressed, 1u);
    EXPECT_EQ(r.bytesDecompressed, kLineSize);
    EXPECT_EQ(c.stats().linesDecompressed, before.linesDecompressed + 1);
    EXPECT_EQ(c.stats().bytesDecompressed,
              before.bytesDecompressed + kLineSize);
}

// --------------------------------------------------------------- Decoupled

TEST(Decoupled, OwnBlockWritebackChargesDecompression)
{
    // One super-tag of 8 segments: a raw sub-line cannot join the
    // compressed dirty sub-line 0 of its own block, and no other block
    // is valid, so the insert evicts sub-line 0 and writes it back.
    DecoupledCache::Config cfg;
    cfg.capacityBytes = kLineSize;
    cfg.ways = 1;
    DecoupledCache c(cfg);
    c.insert(0, compressibleLine(7), true);
    const LlcStats before = c.stats();
    const FillResult r = c.insert(Addr{1} << kLineShift, patternLine(3), true);
    ASSERT_EQ(r.writebacks.size(), 1u);
    EXPECT_EQ(r.writebacks[0].addr, Addr{0});
    EXPECT_EQ(r.linesDecompressed, 1u);
    EXPECT_EQ(r.bytesDecompressed, kLineSize);
    EXPECT_EQ(c.stats().linesDecompressed, before.linesDecompressed + 1);
    EXPECT_EQ(c.stats().bytesDecompressed,
              before.bytesDecompressed + kLineSize);
}

TEST(Decoupled, SuperBlockSharing)
{
    DecoupledCache c;
    // Four consecutive lines share one super-tag.
    for (Addr i = 0; i < 4; i++)
        c.insert(i << kLineShift, compressibleLine(7), false);
    for (Addr i = 0; i < 4; i++)
        EXPECT_TRUE(c.read(i << kLineShift).hit);
}

TEST(Decoupled, RatioCappedAtFour)
{
    DecoupledCache c;
    for (Addr a = 0; a < 200000; a++)
        c.insert(a << kLineShift, CacheLine{}, false);
    EXPECT_LE(c.compressionRatio(), 4.001);
    EXPECT_GT(c.compressionRatio(), 2.0);
}

TEST(Decoupled, EvictionWritesBackDirtySubLines)
{
    DecoupledCache::Config cfg;
    cfg.capacityBytes = 4096;
    DecoupledCache c(cfg);
    Rng rng(5);
    std::uint64_t wbs = 0;
    for (int i = 0; i < 5000; i++) {
        const Addr a = rng.below(2048) << kLineShift;
        wbs += c.insert(a, patternLine(rng.next()), true).writebacks.size();
    }
    EXPECT_GT(wbs, 0u);
}

TEST(Decoupled, HitReturnsData)
{
    DecoupledCache c;
    c.insert(0x1000, patternLine(42), false);
    auto r = c.read(0x1000);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, patternLine(42));
    EXPECT_FALSE(c.read(0x1040).hit); // neighbour sub-line not present
}

// --------------------------------------------------------------------- SC2

TEST(Sc2, TrainsAfterWarmup)
{
    Sc2Cache::Config cfg;
    cfg.warmupFills = 100;
    Sc2Cache c(cfg);
    for (Addr a = 0; a < 99; a++)
        c.insert(a << kLineShift, compressibleLine(3), false);
    EXPECT_FALSE(c.trained());
    c.insert(99 << kLineShift, compressibleLine(3), false);
    EXPECT_TRUE(c.trained());
}

TEST(Sc2, CompressesFrequentValues)
{
    Sc2Cache::Config cfg;
    cfg.warmupFills = 256;
    Sc2Cache c(cfg);
    // A stream dominated by a few values becomes highly compressible
    // once trained; ratio passes 2 (beyond Adaptive) but caps at 4.
    for (Addr a = 0; a < 60000; a++)
        c.insert(a << kLineShift,
                 compressibleLine(0xaa000000 + (a & 7)), false);
    EXPECT_GT(c.compressionRatio(), 2.0);
    EXPECT_LE(c.compressionRatio(), 4.001);
}

TEST(Sc2, RetrainsPeriodically)
{
    Sc2Cache::Config cfg;
    cfg.warmupFills = 64;
    cfg.retrainInterval = 512;
    Sc2Cache c(cfg);
    for (Addr a = 0; a < 3000; a++)
        c.insert(a << kLineShift, compressibleLine(1), false);
    EXPECT_GE(c.stats().retrainings, 4u);
}

TEST(Sc2, HitDataIntact)
{
    Sc2Cache c;
    Rng rng(31);
    for (int i = 0; i < 1000; i++) {
        const Addr a = rng.below(256) << kLineShift;
        const CacheLine l = patternLine(rng.next());
        c.insert(a, l, false);
        auto r = c.read(a);
        ASSERT_TRUE(r.hit);
        ASSERT_EQ(r.data, l);
    }
}

// ------------------------------------------------------------------ Ideal

TEST(Ideal, InterBeatsIntra)
{
    IdealCache intra(OracleScope::IntraLine);
    IdealCache inter(OracleScope::InterLine);
    Rng rng(8);
    // Pool-duplicated data: inter-line dedup removes nearly everything.
    std::uint32_t pool[64];
    for (auto &p : pool)
        p = static_cast<std::uint32_t>(rng.next());
    for (Addr a = 0; a < 50000; a++) {
        CacheLine l;
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, pool[rng.below(64)]);
        intra.insert(a << kLineShift, l, false);
        inter.insert(a << kLineShift, l, false);
    }
    EXPECT_GT(inter.compressionRatio(), 4.0 * intra.compressionRatio());
}

TEST(Ideal, ZeroDataCompressesExtremely)
{
    IdealCache intra(OracleScope::IntraLine);
    for (Addr a = 0; a < 100000; a++)
        intra.insert(a << kLineShift, CacheLine{}, false);
    EXPECT_GT(intra.compressionRatio(), 20.0);
}

TEST(Ideal, RandomDataBarelyCompresses)
{
    IdealCache intra(OracleScope::IntraLine);
    Rng rng(10);
    for (Addr a = 0; a < 10000; a++)
        intra.insert(a << kLineShift, patternLine(rng.next()), false);
    EXPECT_LT(intra.compressionRatio(), 1.3);
}

// ------------------------------------------------- hostile snapshots
//
// Snapshots written by hand in the real layout for one-set caches. The
// untouched variant is byte for byte a fresh cache's saveState(), so
// each hostile one differs from real bytes only where it means to.

/** Counters, then a wear tracker of @p sets x @p ways, all zero. */
void
writeZeroStatsAndWear(snap::Serializer &s, std::uint64_t sets,
                      std::uint64_t ways)
{
    LlcStats{}.save(s);
    s.beginSection("WEAR");
    s.u64(sets);
    s.u64(ways);
    s.vecU64(std::vector<std::uint64_t>(sets * ways));
    s.vecU64(std::vector<std::uint64_t>(sets));
    for (int i = 0; i < 3; i++)
        s.u64(0);
    s.endSection();
}

template <typename Cache>
std::vector<std::uint8_t>
freshFrame(const typename Cache::Config &cfg)
{
    Cache c(cfg);
    snap::Serializer s;
    c.saveState(s);
    return s.frame();
}

template <typename Cache>
bool
restores(const typename Cache::Config &cfg,
         const std::vector<std::uint8_t> &frame)
{
    Cache c(cfg);
    snap::Deserializer d(frame);
    c.restoreState(d);
    return d.ok();
}

/** ADPT section of a one-set Adaptive cache whose set holds one shadow
 *  tag claiming @p shadow_segments segments (none: an empty set). */
std::vector<std::uint8_t>
adaptiveFrame(const AdaptiveCache::Config &cfg, int shadow_segments)
{
    snap::Serializer s;
    s.beginSection("ADPT");
    s.u64(cfg.capacityBytes);
    s.u32(cfg.ways);
    s.u32(cfg.tagFactor);
    s.u32(cfg.segmentBytes);
    s.u64(0); // clock
    s.u64(0); // valid count
    s.i64(0); // predictor
    writeZeroStatsAndWear(s, 1, 1);
    s.u64(1); // sets
    s.u64(shadow_segments < 0 ? 0 : 1);
    if (shadow_segments >= 0) {
        const CacheLine zero{};
        s.u64(7);         // tag
        s.boolean(false); // hasData: a shadow tag
        s.boolean(false); // dirty
        s.boolean(false); // compressed
        s.u32(static_cast<std::uint32_t>(shadow_segments));
        s.u64(0); // lastUse
        s.bytes(zero.bytes.data(), kLineSize);
    }
    s.endSection();
    return s.frame();
}

AdaptiveCache::Config
oneSetAdaptive()
{
    AdaptiveCache::Config cfg;
    cfg.capacityBytes = 8 * kLineSize;
    return cfg;
}

TEST(Adaptive, HandWrittenSnapshotMatchesFreshSave)
{
    const AdaptiveCache::Config cfg = oneSetAdaptive();
    EXPECT_EQ(adaptiveFrame(cfg, -1), freshFrame<AdaptiveCache>(cfg));
    EXPECT_TRUE(restores<AdaptiveCache>(cfg, adaptiveFrame(cfg, 0)));
}

TEST(Adaptive, RestoreRejectsShadowTagHoldingSegments)
{
    // A shadow tag claiming the whole 64-segment budget leaves the next
    // insert no data line to demote: evictUntilFits finds no victim.
    const AdaptiveCache::Config cfg = oneSetAdaptive();
    EXPECT_FALSE(restores<AdaptiveCache>(cfg, adaptiveFrame(cfg, 64)));
}

/** DECP section of a one-set Decoupled cache whose set holds
 *  @p blocks (empty) super-blocks. */
std::vector<std::uint8_t>
decoupledFrame(const DecoupledCache::Config &cfg, unsigned blocks)
{
    const CacheLine zero{};
    snap::Serializer s;
    s.beginSection("DECP");
    s.u64(cfg.capacityBytes);
    s.u32(cfg.ways);
    s.u32(cfg.linesPerSuperBlock);
    s.u32(cfg.segmentBytes);
    s.u64(0); // clock
    s.u64(0); // valid count
    writeZeroStatsAndWear(s, 1, cfg.ways);
    s.u64(1); // sets
    s.u64(blocks);
    for (unsigned b = 0; b < blocks; b++) {
        s.u64(0);         // tag
        s.boolean(false); // valid
        s.u64(0);         // lastUse
        s.u64(cfg.linesPerSuperBlock);
        for (unsigned i = 0; i < cfg.linesPerSuperBlock; i++) {
            s.boolean(false); // valid
            s.boolean(false); // dirty
            s.boolean(false); // compressed
            s.u32(0);         // segments
            s.bytes(zero.bytes.data(), kLineSize);
        }
    }
    s.endSection();
    return s.frame();
}

DecoupledCache::Config
oneSetDecoupled()
{
    DecoupledCache::Config cfg;
    cfg.capacityBytes = 8 * kLineSize;
    return cfg;
}

TEST(Decoupled, HandWrittenSnapshotMatchesFreshSave)
{
    const DecoupledCache::Config cfg = oneSetDecoupled();
    EXPECT_EQ(decoupledFrame(cfg, cfg.ways),
              freshFrame<DecoupledCache>(cfg));
}

TEST(Decoupled, RestoreRejectsSetWithoutSuperBlocks)
{
    // With no super-blocks the next insert's LRU victim scan starts at
    // blocks[0] of an empty vector.
    const DecoupledCache::Config cfg = oneSetDecoupled();
    EXPECT_FALSE(restores<DecoupledCache>(cfg, decoupledFrame(cfg, 0)));
}

// ---------------------------------------------------------------- Table 4

TEST(Overheads, MatchesPaperTable4)
{
    const auto rows = table4Overheads();
    ASSERT_EQ(rows.size(), 5u);

    EXPECT_EQ(rows[0].scheme, "Adaptive");
    EXPECT_NEAR(rows[0].extraTagsFrac, 0.0781, 0.0005);
    EXPECT_NEAR(rows[0].metadataFrac, 0.1093, 0.0005);
    EXPECT_NEAR(rows[0].totalFrac, 0.1874, 0.0005);

    EXPECT_EQ(rows[1].scheme, "Decoupled");
    EXPECT_NEAR(rows[1].extraTagsFrac, 0.0, 1e-9);
    EXPECT_NEAR(rows[1].metadataFrac, 0.0859, 0.0005);

    EXPECT_EQ(rows[2].scheme, "SC2");
    EXPECT_NEAR(rows[2].extraTagsFrac, 0.2343, 0.0005);
    EXPECT_NEAR(rows[2].metadataFrac, 0.1015, 0.0005);
    EXPECT_NEAR(rows[2].totalFrac, 0.3358, 0.0005);
    EXPECT_EQ(rows[2].dictBytes, 18u * 1024u);

    EXPECT_EQ(rows[3].scheme, "MORC");
    EXPECT_NEAR(rows[3].extraTagsFrac, 0.0781, 0.0005);
    EXPECT_NEAR(rows[3].metadataFrac, 0.1718, 0.0005);
    EXPECT_NEAR(rows[3].totalFrac, 0.2500, 0.0005);
    EXPECT_EQ(rows[3].dictBytes, 1024u);

    EXPECT_EQ(rows[4].scheme, "MORCMerged");
    EXPECT_NEAR(rows[4].extraTagsFrac, 0.0, 1e-9);
    EXPECT_NEAR(rows[4].totalFrac, 0.1718, 0.0005);
}

// ------------------------------------------------ Cross-scheme properties

class SchemeParam
    : public ::testing::TestWithParam<const char *>
{
  protected:
    std::unique_ptr<Llc>
    make() const
    {
        const std::string which = GetParam();
        if (which == "uncompressed")
            return std::make_unique<UncompressedCache>(128 * 1024);
        if (which == "adaptive")
            return std::make_unique<AdaptiveCache>();
        if (which == "decoupled")
            return std::make_unique<DecoupledCache>();
        if (which == "touche")
            return std::make_unique<ToucheCache>();
        return std::make_unique<Sc2Cache>();
    }
};

TEST_P(SchemeParam, FunctionalAgainstReferenceMemory)
{
    auto c = make();
    std::map<Addr, CacheLine> memory; // reference: last written data
    Rng rng(77);
    for (int i = 0; i < 20000; i++) {
        const Addr a = rng.below(4096) << kLineShift;
        if (rng.chance(0.5)) {
            const CacheLine l = compressibleLine(
                static_cast<std::uint32_t>(rng.below(64)));
            memory[a] = l;
            for (const auto &wb : c->insert(a, l, true).writebacks) {
                // Write-backs must carry the latest data for their line.
                ASSERT_EQ(wb.data, memory[wb.addr]);
            }
        } else {
            auto r = c->read(a);
            if (r.hit) {
                ASSERT_EQ(r.data, memory[a]);
            }
        }
    }
}

TEST_P(SchemeParam, ValidLinesNeverExceedTagCapacity)
{
    auto c = make();
    Rng rng(13);
    for (int i = 0; i < 30000; i++)
        c->insert(rng.below(1 << 18) << kLineShift, CacheLine{}, false);
    // 8x is beyond every baseline's provisioning.
    EXPECT_LT(c->compressionRatio(), 8.0);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeParam,
                         ::testing::Values("uncompressed", "adaptive",
                                           "decoupled", "sc2",
                                           "touche"));

} // namespace
} // namespace cache
} // namespace morc
