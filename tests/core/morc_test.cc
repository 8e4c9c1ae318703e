/**
 * @file
 * Tests for the MORC log-structured compressed cache, including
 * restores that must reject hostile snapshots a later access would
 * crash on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/morc.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace morc {
namespace core {
namespace {

CacheLine
zeroLine()
{
    return CacheLine{};
}

CacheLine
randomLine(Rng &rng)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, static_cast<std::uint32_t>(rng.next()));
    return l;
}

CacheLine
pooledLine(Rng &rng, const std::uint32_t *pool, unsigned n)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, pool[rng.below(n)]);
    return l;
}

/** FNV-1a over the cache's saveState() bytes: every log, dictionary,
 *  tag stream, LMT entry and counter. */
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

TEST(Morc, MissThenHitRoundTrip)
{
    LogCache c;
    Rng rng(1);
    const Addr a = 0x4000;
    EXPECT_FALSE(c.read(a).hit);
    const CacheLine l = randomLine(rng);
    c.insert(a, l, false);
    auto r = c.read(a);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, l);
}

TEST(Morc, DecompressionLatencyGrowsWithLogPosition)
{
    LogCache c;
    Rng rng(2);
    // Incompressible lines land in the same handful of active logs; a
    // line appended later in a log costs more cycles to reach.
    std::vector<Addr> addrs;
    std::vector<std::uint32_t> latencies;
    for (Addr i = 0; i < 40; i++) {
        const Addr a = i << kLineShift;
        addrs.push_back(a);
        c.insert(a, randomLine(rng), false);
    }
    for (Addr a : addrs) {
        auto r = c.read(a);
        ASSERT_TRUE(r.hit);
        latencies.push_back(r.extraLatency);
    }
    std::uint32_t lo = ~0u, hi = 0;
    for (auto v : latencies) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_GT(hi, lo + 5); // position-dependence is visible
}

TEST(Morc, ZeroDataReachesLmtCap)
{
    LogCache c;
    for (Addr a = 0; a < 400000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    // All-zero lines compress to ~10 bits; the limit is the 8x LMT.
    EXPECT_GT(c.compressionRatio(), 5.0);
    EXPECT_LE(c.compressionRatio(), 8.01);
}

TEST(Morc, RandomDataStaysNearOne)
{
    LogCache c;
    Rng rng(3);
    for (Addr a = 0; a < 20000; a++)
        c.insert(a << kLineShift, randomLine(rng), false);
    EXPECT_LT(c.compressionRatio(), 1.1);
    EXPECT_GT(c.compressionRatio(), 0.75);
}

TEST(Morc, InterLineDuplicationBeatsIntraOnlySchemes)
{
    LogCache c;
    Rng rng(4);
    std::uint32_t pool[32];
    for (auto &p : pool)
        p = static_cast<std::uint32_t>(rng.next());
    for (Addr a = 0; a < 100000; a++)
        c.insert(a << kLineShift, pooledLine(rng, pool, 32), false);
    // Words repeat across lines, not within a line's 4-byte alignment
    // pattern; MORC's shared dictionary captures it.
    EXPECT_GT(c.compressionRatio(), 2.5);
}

TEST(Morc, WritebackInvalidatesOldCopy)
{
    LogCache c;
    Rng rng(5);
    const Addr a = 0x40;
    const CacheLine v1 = randomLine(rng);
    const CacheLine v2 = randomLine(rng);
    c.insert(a, v1, false);
    c.insert(a, v2, true); // write-back re-appends
    auto r = c.read(a);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(r.data, v2);
    EXPECT_EQ(c.validLines(), 1u);
    EXPECT_GT(c.invalidLineFraction(), 0.0);
}

TEST(Morc, ModifiedLinesWriteBackOnFlush)
{
    MorcConfig cfg;
    cfg.capacityBytes = 8 * 1024; // small cache: frequent flushes
    cfg.activeLogs = 2;
    LogCache c(cfg);
    Rng rng(6);
    std::map<Addr, CacheLine> dirty;
    std::uint64_t wb_count = 0;
    for (int i = 0; i < 4000; i++) {
        const Addr a = rng.below(1024) << kLineShift;
        const CacheLine l = randomLine(rng);
        dirty[a] = l;
        auto result = c.insert(a, l, true);
        for (const auto &wb : result.writebacks) {
            wb_count++;
            ASSERT_EQ(wb.data, dirty[wb.addr]) << "stale write-back data";
        }
    }
    EXPECT_GT(wb_count, 0u);
    EXPECT_GT(c.stats().logFlushes, 0u);
}

TEST(Morc, CleanLinesAreDroppedSilently)
{
    MorcConfig cfg;
    cfg.capacityBytes = 8 * 1024;
    cfg.activeLogs = 2;
    LogCache c(cfg);
    Rng rng(7);
    std::uint64_t wbs = 0;
    for (int i = 0; i < 4000; i++) {
        const Addr a = rng.below(4096) << kLineShift;
        wbs += c.insert(a, randomLine(rng), false).writebacks.size();
    }
    EXPECT_EQ(wbs, 0u); // nothing dirty, nothing written back
    EXPECT_GT(c.stats().logFlushes, 0u);
}

TEST(Morc, FunctionalAgainstReferenceMemory)
{
    MorcConfig cfg;
    cfg.capacityBytes = 32 * 1024;
    LogCache c(cfg);
    std::map<Addr, CacheLine> memory;
    Rng rng(8);
    std::uint32_t pool[16];
    for (auto &p : pool)
        p = static_cast<std::uint32_t>(rng.next());
    for (int i = 0; i < 30000; i++) {
        const Addr a = rng.below(2048) << kLineShift;
        if (rng.chance(0.5)) {
            const CacheLine l = pooledLine(rng, pool, 16);
            memory[a] = l;
            for (const auto &wb : c.insert(a, l, true).writebacks)
                ASSERT_EQ(wb.data, memory[wb.addr]);
        } else {
            auto r = c.read(a);
            if (r.hit) {
                ASSERT_EQ(r.data, memory[a]);
            }
        }
    }
}

TEST(Morc, LogReuseAvoidsFlushes)
{
    MorcConfig cfg;
    cfg.capacityBytes = 16 * 1024;
    cfg.activeLogs = 2;
    LogCache c(cfg);
    Rng rng(9);
    // Repeatedly overwrite a tiny footprint: old copies invalidate, so
    // closed logs become all-invalid and are reused without flushing.
    for (int i = 0; i < 20000; i++) {
        const Addr a = rng.below(32) << kLineShift;
        c.insert(a, randomLine(rng), true);
    }
    EXPECT_GT(c.stats().logReuses, 0u);
}

TEST(Morc, LmtConflictEvictions)
{
    MorcConfig cfg;
    cfg.capacityBytes = 8 * 1024;
    cfg.lmtFactor = 1; // deliberately tight LMT
    cfg.lmtWays = 1;
    LogCache c(cfg);
    for (Addr a = 0; a < 2000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    EXPECT_GT(c.stats().lmtConflictEvicts, 0u);
}

TEST(Morc, TwoWayLmtReducesConflicts)
{
    auto run = [](unsigned ways) {
        MorcConfig cfg;
        cfg.capacityBytes = 16 * 1024;
        cfg.lmtFactor = 2;
        cfg.lmtWays = ways;
        LogCache c(cfg);
        Rng rng(ways);
        for (int i = 0; i < 30000; i++)
            c.insert(rng.below(400) << kLineShift, zeroLine(), false);
        return c.stats().lmtConflictEvicts;
    };
    EXPECT_LT(run(2), run(1));
}

TEST(Morc, AliasedMissesAreCountedAndMiss)
{
    MorcConfig cfg;
    cfg.capacityBytes = 8 * 1024;
    cfg.lmtFactor = 1;
    cfg.lmtWays = 1;
    LogCache c(cfg);
    Rng rng(10);
    for (Addr a = 0; a < 500; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    std::uint64_t misses = 0;
    for (Addr a = 100000; a < 101000; a++) {
        if (!c.read(a << kLineShift).hit)
            misses++;
    }
    EXPECT_EQ(misses, 1000u); // absent lines never falsely hit
    EXPECT_GT(c.stats().lmtAliasedMisses, 0u);
}

TEST(Morc, MergedTagsFitWithinLog)
{
    MorcConfig cfg;
    cfg.mergedTags = true;
    LogCache c(cfg);
    Rng rng(11);
    for (Addr a = 0; a < 50000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    EXPECT_GT(c.compressionRatio(), 3.0);
    // Merged storage must never exceed the physical log space: the
    // invariant is enforced internally; ratio stays below the LMT cap.
    EXPECT_LE(c.compressionRatio(), 8.01);
}

TEST(Morc, MergedSlightlyBelowSeparateOnMixedData)
{
    Rng rng(12);
    std::uint32_t pool[64];
    for (auto &p : pool)
        p = static_cast<std::uint32_t>(rng.next());

    auto run = [&](bool merged) {
        MorcConfig cfg;
        cfg.mergedTags = merged;
        LogCache c(cfg);
        Rng r2(13);
        for (Addr a = 0; a < 60000; a++)
            c.insert(a << kLineShift, pooledLine(r2, pool, 64), false);
        return c.compressionRatio();
    };
    const double separate = run(false);
    const double merged = run(true);
    EXPECT_GT(merged, separate * 0.75); // small sacrifice only
}

TEST(Morc, CompressionDisabledStoresRaw)
{
    MorcConfig cfg;
    cfg.compressionEnabled = false;
    LogCache c(cfg);
    for (Addr a = 0; a < 10000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    EXPECT_LE(c.compressionRatio(), 1.01);
    EXPECT_EQ(stateDigest(c), 0xff54c68cbd95919bull);
}

TEST(Morc, UnlimitedMetaLiftsLmtCap)
{
    MorcConfig cfg;
    cfg.unlimitedMeta = true;
    LogCache c(cfg);
    for (Addr a = 0; a < 600000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    EXPECT_GT(c.compressionRatio(), 10.0); // beyond the 8x LMT limit
    EXPECT_EQ(stateDigest(c), 0xc7d8ee1d3f19c982ull);
}

TEST(Morc, MoreActiveLogsHelpMixedStreams)
{
    // Two interleaved data types: multi-log separates them into
    // type-specific streams and compresses better than a single log.
    auto run = [](unsigned logs) {
        MorcConfig cfg;
        cfg.activeLogs = logs;
        cfg.unlimitedMeta = true;
        LogCache c(cfg);
        Rng rng(14);
        std::uint32_t pool_a[8], pool_b[8];
        for (auto &p : pool_a)
            p = static_cast<std::uint32_t>(rng.next());
        for (auto &p : pool_b)
            p = static_cast<std::uint32_t>(rng.next());
        for (Addr a = 0; a < 40000; a++) {
            CacheLine l = (a & 1) ? pooledLine(rng, pool_a, 8)
                                  : pooledLine(rng, pool_b, 8);
            c.insert(a << kLineShift, l, false);
        }
        return c.compressionRatio();
    };
    EXPECT_GE(run(8), run(1) * 0.95); // never materially worse
}

TEST(Morc, TrialFloorUsesTheConfiguredPointerWidths)
{
    // With one-node 128/256-bit tables an m256 costs 6 bits (default
    // widths: 11), so a line repeating one committed chunk takes 12 data
    // bits. A floor built from the default widths (22 bits) would turn
    // such a line away from a log with 12 to 21 bits left and rotate
    // early. One active log and no tag budget leave data bits as the
    // only test, so a shadow encoder predicts every append exactly.
    MorcConfig cfg;
    cfg.activeLogs = 1;
    cfg.unlimitedMeta = true;
    cfg.lbe.nodes128 = 1;
    cfg.lbe.nodes256 = 1;
    LogCache c(cfg);
    comp::LbeEncoder shadow(cfg.lbe);
    const std::uint64_t log_bits = std::uint64_t{cfg.logBytes} * 8;
    // Four distinct words tiled: both halves of both chunks are one
    // 128-bit node, so the one-node tables hold the whole chunk.
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, 0x51ed0000u + i % 4);
    const comp::LbeLinePlan plan = comp::LbeLinePlan::of(l);
    std::uint64_t used = 0, total = 0, logs = 1, tight_fits = 0;
    for (Addr a = 0; a < 1200; a++) {
        const std::uint64_t exact = shadow.measure(plan);
        if (used > 0 && exact > log_bits - used) {
            shadow.reset();
            used = 0;
            logs++;
        } else if (used > 0 && log_bits - used < 22) {
            tight_fits++;
        }
        const std::uint64_t bits = shadow.append(plan);
        used += bits;
        total += bits;
        c.insert(a << kLineShift, l, false);
        ASSERT_EQ(c.snapshot().dataBits, total) << "line " << a;
    }
    EXPECT_GE(logs, 3u);
    EXPECT_GE(tight_fits, 2u); // lines a default-width floor would refuse
}

TEST(Morc, LbeStatsAggregate)
{
    LogCache c;
    for (Addr a = 0; a < 1000; a++)
        c.insert(a << kLineShift, zeroLine(), false);
    const auto stats = c.lbeStats();
    EXPECT_GT(stats.count[static_cast<int>(comp::LbeSymbol::Z256)], 0u);
}

TEST(Morc, InvalidFractionTracksWritebacks)
{
    MorcConfig cfg;
    cfg.compressionEnabled = false; // as in the Figure 12 methodology
    LogCache c(cfg);
    Rng rng(15);
    for (int i = 0; i < 20000; i++)
        c.insert(rng.below(512) << kLineShift, zeroLine(), true);
    EXPECT_GT(c.invalidLineFraction(), 0.05);
    EXPECT_LT(c.invalidLineFraction(), 0.95);
}

/** Parameterized sweep over log sizes and active-log counts: the cache
 *  must stay functional and bounded in every configuration. */
class MorcGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(MorcGeometry, FunctionalAndBounded)
{
    MorcConfig cfg;
    cfg.logBytes = std::get<0>(GetParam());
    cfg.activeLogs = std::get<1>(GetParam());
    cfg.capacityBytes = 128 * 1024;
    LogCache c(cfg);
    std::map<Addr, CacheLine> memory;
    Rng rng(cfg.logBytes + cfg.activeLogs);
    std::uint32_t pool[16];
    for (auto &p : pool)
        p = static_cast<std::uint32_t>(rng.next());
    for (int i = 0; i < 15000; i++) {
        const Addr a = rng.below(8192) << kLineShift;
        if (rng.chance(0.6)) {
            const CacheLine l = pooledLine(rng, pool, 16);
            memory[a] = l;
            for (const auto &wb : c.insert(a, l, true).writebacks)
                ASSERT_EQ(wb.data, memory[wb.addr]);
        } else {
            auto r = c.read(a);
            if (r.hit) {
                ASSERT_EQ(r.data, memory[a]);
            }
        }
    }
    EXPECT_LE(c.compressionRatio(), cfg.lmtFactor + 0.01);
    // End state pinned byte for byte (64 B logs hold lines larger than
    // their whole budget), so the trial budget arithmetic cannot drift.
    static const std::map<std::tuple<unsigned, unsigned>, std::uint64_t>
        kDigests = {
            {{64, 1}, 0x20f1b5ce57f9b627ull},
            {{64, 4}, 0xaca200bb92b46e3cull},
            {{64, 8}, 0x36a1bf8101e3b037ull},
            {{64, 16}, 0x16f8df4a554a8584ull},
            {{256, 1}, 0x85d0f6a3525eb4f8ull},
            {{256, 4}, 0x6870da5327096215ull},
            {{256, 8}, 0xa8348ae5c4ff985aull},
            {{256, 16}, 0x702dda7be623f637ull},
            {{512, 1}, 0x7000c1044119bb73ull},
            {{512, 4}, 0x488dccf34ea9de36ull},
            {{512, 8}, 0x7d62b38328e065aeull},
            {{512, 16}, 0x8389751d70832fffull},
            {{2048, 1}, 0x8b82142658e5fa3aull},
            {{2048, 4}, 0x4081a79425515761ull},
            {{2048, 8}, 0xba8c5fac95dfa0fbull},
            {{2048, 16}, 0x316d5a280580e18bull},
        };
    const auto it = kDigests.find(GetParam());
    ASSERT_NE(it, kDigests.end());
    EXPECT_EQ(stateDigest(c), it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MorcGeometry,
    ::testing::Combine(::testing::Values(64u, 256u, 512u, 2048u),
                       ::testing::Values(1u, 4u, 8u, 16u)));

// ------------------------------------------------- hostile snapshots
//
// A fresh cache's saved payload with a few bytes overwritten, resealed
// into a valid frame: everything else is the real layout.

std::vector<std::uint8_t>
freshPayload(const LogCache &c)
{
    snap::Serializer s;
    c.saveState(s);
    return s.payload();
}

void
putLe(std::vector<std::uint8_t> &p, std::size_t at, std::uint64_t v,
      unsigned bytes)
{
    for (unsigned i = 0; i < bytes; i++)
        p.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getLe64(const std::vector<std::uint8_t> &p, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; i++)
        v |= static_cast<std::uint64_t>(p.at(at + i)) << (8 * i);
    return v;
}

bool
restores(const std::vector<std::uint8_t> &payload)
{
    snap::Serializer s;
    s.bytes(payload.data(), payload.size());
    LogCache twin;
    snap::Deserializer d(s.frame());
    twin.restoreState(d);
    return d.ok();
}

TEST(Morc, RestoreRejectsLmtEntryForALineItsLogLacks)
{
    // A valid LMT entry for line 1234 pointing at (empty) log 0: a read
    // of that line would serve the log's nonexistent copy. The LMT is
    // the payload's tail, just before the empty unlimited-map count.
    const LogCache fresh;
    std::vector<std::uint8_t> p = freshPayload(fresh);
    ASSERT_TRUE(restores(p));
    const std::uint64_t entries =
        std::uint64_t{1} << floorLog2(MorcConfig{}.lmtEntries());
    constexpr std::size_t kEntryBytes = 1 + 1 + 4 + 8;
    const std::size_t lmt = p.size() - 8 - entries * kEntryBytes;
    ASSERT_EQ(getLe64(p, lmt - 8), entries);
    const Addr line = 1234;
    const std::size_t slot = splitmix64(line) & (entries - 1);
    const std::size_t at = lmt + slot * kEntryBytes;
    putLe(p, at, 1, 1);         // valid
    putLe(p, at + 2, 0, 4);     // log 0
    putLe(p, at + 6, line, 8);  // line number
    EXPECT_FALSE(restores(p));
}

TEST(Morc, RestoreRejectsUnlimitedLmtKeyNamingAnotherLine)
{
    // Unlimited-metadata mode: the map's one entry (the payload's tail:
    // key, valid, modified, log, line) re-keyed to line 99, which no
    // log holds. A read of line 99 would serve a copy that is not there.
    MorcConfig cfg;
    cfg.unlimitedMeta = true;
    LogCache c(cfg);
    c.insert(Addr{7} << kLineShift, zeroLine(), false);
    snap::Serializer s;
    c.saveState(s);
    std::vector<std::uint8_t> p = s.payload();
    constexpr std::size_t kEntryBytes = 8 + 1 + 1 + 4 + 8;
    const std::size_t entry = p.size() - kEntryBytes;
    ASSERT_EQ(getLe64(p, entry - 8), 1u); // map size
    ASSERT_EQ(getLe64(p, entry), 7u);     // key
    putLe(p, entry, 99, 8);
    snap::Serializer framed;
    framed.bytes(p.data(), p.size());
    LogCache twin(cfg);
    snap::Deserializer d(framed.frame());
    twin.restoreState(d);
    EXPECT_FALSE(d.ok());
}

TEST(Morc, RestoreRejectsTagStreamBitCountPastItsWords)
{
    // Log 0's tag stream (no words) claiming 2^64 - 1 bits: the next
    // append to it would index a word far past the end.
    const LogCache fresh;
    std::vector<std::uint8_t> p = freshPayload(fresh);
    const std::string tagc = "TAGC";
    const auto it = std::search(p.begin(), p.end(), tagc.begin(),
                                tagc.end());
    ASSERT_NE(it, p.end());
    const std::size_t section = static_cast<std::size_t>(it - p.begin());
    const std::size_t words = section + 12 + getLe64(p, section + 4);
    ASSERT_EQ(getLe64(p, words), 0u);     // word count
    ASSERT_EQ(getLe64(p, words + 8), 0u); // bit count
    putLe(p, words + 8, ~0ull, 8);
    EXPECT_FALSE(restores(p));
}

} // namespace
} // namespace core
} // namespace morc
