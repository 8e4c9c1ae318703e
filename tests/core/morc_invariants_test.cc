/**
 * @file
 * Deeper MORC invariants: storage accounting, budget enforcement,
 * latency monotonicity, LMT relocation, and tag-codec integration.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/morc.hh"
#include "snapshot/snapshot.hh"
#include "trace/value_model.hh"
#include "util/rng.hh"

namespace morc {
namespace core {
namespace {

CacheLine
pooledLine(Rng &rng, std::uint32_t salt)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++) {
        l.setWord32(i, rng.chance(0.3)
                           ? 0
                           : salt + static_cast<std::uint32_t>(
                                        rng.below(32)) * 4);
    }
    return l;
}

/** FNV-1a over the cache's saveState() bytes. */
std::uint64_t
stateDigest(const LogCache &c)
{
    snap::Serializer s;
    c.saveState(s);
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : s.payload()) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(MorcInvariants, SeparateTagStoreBudgetsHold)
{
    MorcConfig cfg;
    LogCache c(cfg);
    Rng rng(1);
    for (Addr a = 0; a < 60000; a++)
        c.insert(a << kLineShift, pooledLine(rng, 0x1000), false);
    const auto s = c.snapshot();
    // No log may exceed its data space; the tag store is separate.
    EXPECT_LE(s.dataBits, static_cast<std::uint64_t>(cfg.numLogs()) *
                              cfg.logBytes * 8);
    // Aggregate tag bits fit the aggregate tag budget.
    EXPECT_LE(s.tagBits, static_cast<std::uint64_t>(cfg.numLogs()) *
                             cfg.tagBudgetBits());
}

TEST(MorcInvariants, MergedBudgetSharesOneLog)
{
    MorcConfig cfg;
    cfg.mergedTags = true;
    LogCache c(cfg);
    Rng rng(2);
    for (Addr a = 0; a < 60000; a++)
        c.insert(a << kLineShift, pooledLine(rng, 0x2000), false);
    const auto s = c.snapshot();
    EXPECT_LE(s.dataBits + s.tagBits,
              static_cast<std::uint64_t>(cfg.numLogs()) * cfg.logBytes *
                  8);
}

TEST(MorcInvariants, SnapshotCountsMatchPublicStats)
{
    LogCache c;
    Rng rng(3);
    for (Addr a = 0; a < 20000; a++)
        c.insert(a << kLineShift, pooledLine(rng, 0x3000),
                 rng.chance(0.3));
    const auto s = c.snapshot();
    EXPECT_EQ(s.linesValid, c.validLines());
    EXPECT_GE(s.linesTotal, s.linesValid);
    EXPECT_NEAR(c.invalidLineFraction(),
                1.0 - static_cast<double>(s.linesValid) /
                          static_cast<double>(s.linesTotal),
                1e-12);
}

TEST(MorcInvariants, LatencyIsMonotoneInLogPosition)
{
    // Fill one log with incompressible lines; later lines in the fill
    // order must never be cheaper to reach than earlier ones (they sit
    // deeper in the stream).
    MorcConfig cfg;
    cfg.activeLogs = 1;
    LogCache c(cfg);
    Rng rng(4);
    std::vector<Addr> addrs;
    for (Addr i = 0; i < 7; i++) { // stay within one 512B log
        CacheLine l;
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
        const Addr a = i << kLineShift;
        addrs.push_back(a);
        c.insert(a, l, false);
    }
    std::uint32_t prev = 0;
    for (Addr a : addrs) {
        const auto r = c.read(a);
        ASSERT_TRUE(r.hit);
        EXPECT_GE(r.extraLatency, prev);
        prev = r.extraLatency;
    }
}

TEST(MorcInvariants, BytesDecompressedCoverPrefix)
{
    MorcConfig cfg;
    cfg.activeLogs = 1;
    LogCache c(cfg);
    Rng rng(5);
    for (Addr i = 0; i < 6; i++) {
        CacheLine l;
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
        c.insert(i << kLineShift, l, false);
    }
    // The last line's read must decompress at least as many bytes as
    // lines precede it times the minimum possible line size.
    const auto r = c.read(5ull << kLineShift);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.linesDecompressed, 6u);
    EXPECT_GE(r.bytesDecompressed, 6u * 32u); // random lines ~64B each
}

TEST(MorcInvariants, RelocationPreservesResidency)
{
    // With a tight 1-way-equivalent load, 2-way + relocation must keep
    // strictly more lines resident than 1-way.
    auto resident = [](unsigned ways) {
        MorcConfig cfg;
        cfg.capacityBytes = 32 * 1024;
        cfg.lmtFactor = 2;
        cfg.lmtWays = ways;
        LogCache c(cfg);
        Rng rng(6);
        for (int i = 0; i < 40000; i++)
            c.insert(rng.below(700) << kLineShift, CacheLine{}, false);
        return c.validLines();
    };
    EXPECT_GT(resident(2), resident(1));
}

TEST(MorcInvariants, ParallelTagDataNeverSlower)
{
    MorcConfig serial;
    MorcConfig parallel;
    parallel.parallelTagData = true;
    LogCache a(serial), b(parallel);
    Rng rng(42);
    for (Addr i = 0; i < 2000; i++) {
        const CacheLine l = pooledLine(rng, 0xaa00);
        a.insert(i << kLineShift, l, false);
        b.insert(i << kLineShift, l, false);
    }
    for (Addr i = 0; i < 2000; i++) {
        const auto ra = a.read(i << kLineShift);
        const auto rb = b.read(i << kLineShift);
        ASSERT_EQ(ra.hit, rb.hit);
        if (ra.hit) {
            ASSERT_LE(rb.extraLatency, ra.extraLatency);
        }
    }
}

TEST(MorcInvariants, ReadDoesNotChangeState)
{
    LogCache c;
    Rng rng(7);
    for (Addr a = 0; a < 5000; a++)
        c.insert(a << kLineShift, pooledLine(rng, 0x7000), false);
    const auto before = c.snapshot();
    const auto v_before = c.validLines();
    for (Addr a = 0; a < 10000; a++)
        c.read(a << kLineShift);
    const auto after = c.snapshot();
    EXPECT_EQ(before.linesTotal, after.linesTotal);
    EXPECT_EQ(before.dataBits, after.dataBits);
    EXPECT_EQ(v_before, c.validLines());
}

TEST(MorcInvariants, WritebackToAbsentLineAllocates)
{
    // Non-inclusive LLC: a write-back may arrive for a line the LLC
    // never held; it must be appended like a fill, marked modified.
    LogCache c;
    Rng rng(8);
    const CacheLine l = pooledLine(rng, 0x8000);
    cache::FillResult fr = c.insert(0xabc0, l, true);
    EXPECT_TRUE(fr.writebacks.empty());
    const auto r = c.read(0xabc0);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, l);
}

TEST(MorcInvariants, TagStatsAccumulate)
{
    LogCache c;
    Rng rng(9);
    for (Addr a = 0; a < 3000; a++)
        c.insert(a << kLineShift, CacheLine{}, false);
    const auto s = c.snapshot();
    EXPECT_GT(s.tagDeltas + s.tagNewBases, 0u);
    // Sequential fills chain: deltas dominate new bases.
    EXPECT_GT(s.tagDeltas, s.tagNewBases);
}

/** Sweep MORC-vs-reference over tag-store and LMT geometries. */
class MorcBudgetSweep
    : public ::testing::TestWithParam<std::tuple<double, unsigned, bool>>
{};

TEST_P(MorcBudgetSweep, FunctionalUnderAllBudgets)
{
    MorcConfig cfg;
    cfg.capacityBytes = 64 * 1024;
    cfg.tagStoreFactor = std::get<0>(GetParam());
    cfg.lmtFactor = std::get<1>(GetParam());
    cfg.mergedTags = std::get<2>(GetParam());
    LogCache c(cfg);
    std::map<Addr, CacheLine> memory;
    Rng rng(99);
    for (int i = 0; i < 20000; i++) {
        const Addr a = rng.below(4096) << kLineShift;
        if (rng.chance(0.6)) {
            const CacheLine l = pooledLine(rng, 0x9000);
            memory[a] = l;
            for (const auto &wb : c.insert(a, l, true).writebacks)
                ASSERT_EQ(wb.data, memory[wb.addr]);
        } else {
            const auto r = c.read(a);
            if (r.hit) {
                ASSERT_EQ(r.data, memory[a]);
            }
        }
    }
    EXPECT_LE(c.compressionRatio(), cfg.lmtFactor + 0.01);
    // End state pinned byte for byte, so the budget arithmetic of
    // merged logs and of tag-store-bound (1x) logs cannot drift.
    static const std::map<std::tuple<double, unsigned, bool>,
                          std::uint64_t>
        kDigests = {
            {{1.0, 2, false}, 0xbfa9dfda45b3fefeull},
            {{1.0, 2, true}, 0x521c346a5d9dd3b2ull},
            {{1.0, 8, false}, 0x319679fee4000524ull},
            {{1.0, 8, true}, 0xc9292507a622cfe0ull},
            {{2.0, 2, false}, 0x344068f52fdc71d2ull},
            {{2.0, 2, true}, 0x91fa23811dfec71full},
            {{2.0, 8, false}, 0xe8dae0568442c1eeull},
            {{2.0, 8, true}, 0xed8c63efdd6d16f1ull},
            {{4.0, 2, false}, 0x65a6a91ed9332fa2ull},
            {{4.0, 2, true}, 0xa070281a4dbde42full},
            {{4.0, 8, false}, 0xa06c3b2f0b8a5a7eull},
            {{4.0, 8, true}, 0xded9c5cf46089d01ull},
        };
    const auto it = kDigests.find(GetParam());
    ASSERT_NE(it, kDigests.end());
    EXPECT_EQ(stateDigest(c), it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, MorcBudgetSweep,
    ::testing::Combine(::testing::Values(1.0, 2.0, 4.0),
                       ::testing::Values(2u, 8u),
                       ::testing::Values(false, true)));

} // namespace
} // namespace core
} // namespace morc
