/**
 * @file
 * Property/fuzz tests for Large-Block Encoding: randomized round-trip
 * (compress -> decompress == input) over seeded adversarial streams,
 * extending lbe_test.cc's fixed-case coverage. Every stream also checks
 * the measure()==append() invariant, and streams are replayed against a
 * starved configuration so pointer-width edge cases get exercised. The
 * budget-bounded trial measure is checked against the unbounded one
 * at and around every line's exact size. The insert path's shortcuts
 * are pinned to the work they skip: the plan's floor never exceeds a
 * measure under default and skewed configurations, the counted ones
 * equal the emitted stream's, and the node-table filters rebuilt by a
 * restore encode exactly as the live ones.
 */

#include <gtest/gtest.h>

#include <vector>

#include "compress/lbe.hh"
#include "energy/lifetime.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace morc {
namespace comp {
namespace {

/** Adversarial line generators, selected per line by the fuzz driver. */
enum class Gen
{
    AllZero,
    AlternatingBits,   // 0xaaaa.../0x5555... interleave
    AlternatingZero,   // word-granular zero/value toggle
    TruncationEdges,   // values at the u8/u16/u32 significance edges
    RepeatedChunk,     // one 64-bit chunk tiled across the line
    NearDuplicate,     // earlier line with one word flipped
    SmallPool,         // few distinct values (dictionary-friendly)
    Random,
    NumGens
};

CacheLine
makeLine(Gen g, Rng &rng, const std::vector<CacheLine> &history)
{
    CacheLine l{};
    switch (g) {
      case Gen::AllZero:
        break;
      case Gen::AlternatingBits:
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, (w & 1) ? 0xaaaaaaaau : 0x55555555u);
        break;
      case Gen::AlternatingZero: {
        const auto v = static_cast<std::uint32_t>(rng.next());
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, (w & 1) ? v : 0);
        break;
      }
      case Gen::TruncationEdges: {
        // Exact u8/u16 boundaries and one-past values.
        static const std::uint32_t kEdges[] = {
            0x0,      0x1,       0xff,     0x100,
            0xffff,   0x10000,   0xffffff, 0x1000000,
            0x7f,     0x80,      0x7fff,   0x8000,
        };
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, kEdges[rng.below(std::size(kEdges))]);
        break;
      }
      case Gen::RepeatedChunk: {
        const auto a = static_cast<std::uint32_t>(rng.next());
        const auto b = static_cast<std::uint32_t>(rng.next());
        for (unsigned w = 0; w < kWordsPerLine; w += 2) {
            l.setWord32(w, a);
            l.setWord32(w + 1, b);
        }
        break;
      }
      case Gen::NearDuplicate:
        if (!history.empty()) {
            l = history[rng.below(history.size())];
            l.setWord32(rng.below(kWordsPerLine),
                        static_cast<std::uint32_t>(rng.next()));
        } else {
            for (unsigned w = 0; w < kWordsPerLine; w++)
                l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
        }
        break;
      case Gen::SmallPool:
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, 0xfeed0000u + static_cast<std::uint32_t>(
                                             rng.below(6)));
        break;
      case Gen::Random:
      default:
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
        break;
    }
    return l;
}

/** One fuzz episode: encode a stream, then decode and compare. */
void
roundTripEpisode(std::uint64_t seed, const LbeConfig &cfg, int lines,
                 bool with_resets)
{
    LbeEncoder enc(cfg);
    LbeDecoder dec(cfg);
    BitWriter out;
    Rng rng(seed);
    std::vector<CacheLine> history;

    // Segment boundaries where both sides reset (log flush mid-stream).
    std::vector<std::size_t> resets;
    std::vector<CacheLine> stream;
    for (int i = 0; i < lines; i++) {
        if (with_resets && i > 0 && rng.chance(0.05)) {
            resets.push_back(stream.size());
            enc.reset();
            history.clear();
        }
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        const CacheLine l = makeLine(g, rng, history);
        const std::uint32_t measured = enc.measure(l);
        const std::uint32_t appended = enc.append(l, &out);
        ASSERT_EQ(measured, appended)
            << "seed " << seed << " line " << i;
        history.push_back(l);
        stream.push_back(l);
    }

    BitReader in(out);
    std::size_t next_reset = 0;
    for (std::size_t i = 0; i < stream.size(); i++) {
        if (next_reset < resets.size() && resets[next_reset] == i) {
            dec.reset();
            next_reset++;
        }
        const CacheLine got = dec.decodeLine(in);
        ASSERT_EQ(got, stream[i]) << "seed " << seed << " line " << i;
    }
    EXPECT_TRUE(dec.ok()) << "seed " << seed;
    EXPECT_EQ(in.remaining(), 0u) << "seed " << seed;
}

TEST(LbeProperty, RoundTripAdversarialStreams)
{
    for (std::uint64_t seed = 1; seed <= 20; seed++)
        roundTripEpisode(seed, LbeConfig{}, 250, /*with_resets=*/false);
}

TEST(LbeProperty, RoundTripWithMidStreamResets)
{
    for (std::uint64_t seed = 100; seed <= 115; seed++)
        roundTripEpisode(seed, LbeConfig{}, 250, /*with_resets=*/true);
}

/** Tiny tables force capacity freezes and the narrowest pointers. */
LbeConfig
starvedConfig()
{
    LbeConfig cfg;
    cfg.dictBytes = 32;
    cfg.nodes64 = 3;
    cfg.nodes128 = 1;
    cfg.nodes256 = 1;
    return cfg;
}

/** A one-node 128-bit table under a 4095-node 256-bit table: m128 is
 *  6 bits and m256 17, so a zero half and a matched half (11 bits)
 *  undercut an m256. */
LbeConfig
descentConfig()
{
    LbeConfig cfg;
    cfg.nodes128 = 1;
    cfg.nodes256 = 4095;
    return cfg;
}

TEST(LbeProperty, RoundTripStarvedDictionaries)
{
    for (std::uint64_t seed = 200; seed <= 212; seed++)
        roundTripEpisode(seed, starvedConfig(), 200, /*with_resets=*/true);
}

TEST(LbeProperty, MeasureNeverMutatesUnderFuzz)
{
    LbeEncoder enc;
    Rng rng(4242);
    std::vector<CacheLine> history;
    const CacheLine probe =
        makeLine(Gen::SmallPool, rng, history);
    const std::uint32_t before = enc.measure(probe);
    for (int i = 0; i < 300; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        enc.measure(makeLine(g, rng, history));
    }
    EXPECT_EQ(enc.measure(probe), before);
}

TEST(LbeProperty, PlanBasedTrialsMatchIndependentMeasures)
{
    // The multi-log insert path computes one LbeLinePlan per line and
    // scores it against all active logs. Plan-based trials must equal
    // fresh per-call measure()/append() results on every encoder, no
    // matter how the dictionaries have diverged.
    constexpr int kLogs = 8;
    std::vector<LbeEncoder> encs(kLogs);
    Rng rng(9001);
    std::vector<CacheLine> history;
    for (int i = 0; i < 400; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        const CacheLine l = makeLine(g, rng, history);
        history.push_back(l);
        const LbeLinePlan plan = LbeLinePlan::of(l);
        for (int e = 0; e < kLogs; e++) {
            const std::uint32_t via_plan = encs[e].measure(plan);
            const std::uint32_t via_line = encs[e].measure(l);
            ASSERT_EQ(via_plan, via_line)
                << "line " << i << " encoder " << e;
        }
        // Commit to one encoder through the plan overload, like the
        // insert path does, diverging the dictionaries.
        const int pick = static_cast<int>(rng.below(kLogs));
        const std::uint32_t measured = encs[pick].measure(plan);
        ASSERT_EQ(encs[pick].append(plan), measured)
            << "line " << i << " encoder " << pick;
    }
}

TEST(LbeProperty, PlanAppendRoundTripsThroughDecoder)
{
    LbeConfig cfg;
    LbeEncoder enc(cfg);
    LbeDecoder dec(cfg);
    BitWriter out;
    Rng rng(9002);
    std::vector<CacheLine> history;
    std::vector<CacheLine> stream;
    for (int i = 0; i < 300; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        const CacheLine l = makeLine(g, rng, history);
        enc.append(LbeLinePlan::of(l), &out);
        history.push_back(l);
        stream.push_back(l);
    }
    BitReader in(out);
    for (std::size_t i = 0; i < stream.size(); i++)
        ASSERT_EQ(dec.decodeLine(in), stream[i]) << "line " << i;
    EXPECT_TRUE(dec.ok());
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(LbeProperty, TrialStatsMatchCommittedStats)
{
    // A trial (measure with stats) must record exactly the symbol mix
    // the subsequent append() commits — the simulator's Figure 7
    // distribution is aggregated from committed stats, but the trial
    // path must agree or the two code paths have diverged.
    LbeEncoder enc;
    Rng rng(9003);
    std::vector<CacheLine> history;
    for (int i = 0; i < 400; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        const CacheLine l = makeLine(g, rng, history);
        history.push_back(l);
        LbeStats trial;
        const std::uint32_t measured = enc.measure(l, &trial);
        const LbeStats before = enc.stats();
        const std::uint32_t appended = enc.append(l);
        ASSERT_EQ(measured, appended) << "line " << i;
        LbeStats expected = before;
        constexpr int kNumSymbols =
            static_cast<int>(LbeSymbol::NumSymbols);
        for (int s = 0; s < kNumSymbols; s++) {
            expected.count[s] += trial.count[s];
            expected.zeroCount[s] += trial.zeroCount[s];
        }
        ASSERT_EQ(enc.stats(), expected) << "line " << i;
    }
}

/**
 * Bounded trials over diverged encoders: with limits 0, exact-1, exact,
 * exact+1 and random ones, a bounded measure() must equal the unbounded
 * score whenever the line fits and exceed the limit whenever it does
 * not. An early exit leaves trial scratch behind, so the append that
 * follows one must still produce the unbounded score.
 */
void
boundedMeasureEpisode(std::uint64_t seed, const LbeConfig &cfg)
{
    constexpr int kLogs = 8;
    std::vector<LbeEncoder> encs(kLogs, LbeEncoder(cfg));
    Rng rng(seed);
    std::vector<CacheLine> history;
    for (int i = 0; i < 300; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        const CacheLine l = makeLine(g, rng, history);
        history.push_back(l);
        const LbeLinePlan plan = LbeLinePlan::of(l);
        for (int e = 0; e < kLogs; e++) {
            // The exact size comes from the commit path, on a copy.
            LbeEncoder committed = encs[e];
            const std::uint32_t exact = committed.append(plan);
            ASSERT_EQ(encs[e].measure(plan), exact)
                << "seed " << seed << " line " << i << " encoder " << e;
            const std::uint32_t limits[] = {
                0,
                exact - 1,
                exact,
                exact + 1,
                static_cast<std::uint32_t>(rng.below(exact + 64)),
                static_cast<std::uint32_t>(rng.below(600)),
            };
            for (const std::uint32_t limit : limits) {
                const std::uint32_t bounded =
                    encs[e].measure(plan, nullptr, limit);
                if (exact <= limit) {
                    ASSERT_EQ(bounded, exact)
                        << "seed " << seed << " line " << i << " encoder "
                        << e << " limit " << limit;
                } else {
                    ASSERT_GT(bounded, limit)
                        << "seed " << seed << " line " << i << " encoder "
                        << e << " exact " << exact;
                    ASSERT_LE(bounded, exact)
                        << "seed " << seed << " line " << i << " encoder "
                        << e << " limit " << limit;
                }
            }
        }
        // Commit right after a trial stopped early at limit 0 (its
        // scratch must not leak into the append), diverging the
        // dictionaries.
        const int pick = static_cast<int>(rng.below(kLogs));
        const std::uint32_t exact = encs[pick].measure(plan);
        EXPECT_GT(encs[pick].measure(plan, nullptr, 0), 0u);
        ASSERT_EQ(encs[pick].append(plan), exact)
            << "seed " << seed << " line " << i << " encoder " << pick;
    }
}

TEST(LbeProperty, BoundedMeasureIsExactWithinLimit)
{
    for (std::uint64_t seed = 300; seed <= 305; seed++)
        boundedMeasureEpisode(seed, LbeConfig{});
}

TEST(LbeProperty, BoundedMeasureIsExactWithinLimitStarved)
{
    for (std::uint64_t seed = 400; seed <= 405; seed++)
        boundedMeasureEpisode(seed, starvedConfig());
}

TEST(LbeProperty, ZeroRunsStayWithinZeroSymbolBudget)
{
    // All-zero input must cost at most two z256 symbols per line no
    // matter what preceded it.
    LbeEncoder enc;
    Rng rng(7);
    std::vector<CacheLine> history;
    for (int i = 0; i < 50; i++) {
        const auto g = static_cast<Gen>(
            rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
        enc.append(makeLine(g, rng, history));
        EXPECT_EQ(enc.measure(CacheLine{}), 10u) << "iteration " << i;
    }
}

Gen
randomGen(Rng &rng)
{
    return static_cast<Gen>(
        rng.below(static_cast<std::uint64_t>(Gen::NumGens)));
}

std::uint64_t
symbolCount(const LbeStats &s, LbeSymbol sym)
{
    return s.count[static_cast<int>(sym)];
}

/**
 * floorBits() against measure() over 8 diverged, periodically reset
 * encoders. The floor must never exceed a measure, must meet it on some
 * lines (a floor that is never tight proves little), and the stream
 * must use m256, the symbol whose width skewed configs move most.
 */
void
floorEpisode(std::uint64_t seed, const LbeConfig &cfg)
{
    constexpr int kLogs = 8;
    std::vector<LbeEncoder> encs(kLogs, LbeEncoder(cfg));
    Rng rng(seed);
    std::vector<CacheLine> history;
    std::uint64_t tight = 0;
    for (int i = 0; i < 600; i++) {
        const CacheLine l = makeLine(randomGen(rng), rng, history);
        history.push_back(l);
        const LbeLinePlan plan = LbeLinePlan::of(l);
        const std::uint32_t floor = plan.floorBits(cfg.chunkFloorBits());
        for (int e = 0; e < kLogs; e++) {
            const std::uint32_t exact = encs[e].measure(plan);
            ASSERT_LE(floor, exact)
                << "seed " << seed << " line " << i << " encoder " << e;
            tight += floor == exact;
        }
        const int pick = static_cast<int>(rng.below(kLogs));
        if (rng.chance(0.03))
            encs[pick].reset();
        encs[pick].append(plan);
    }
    EXPECT_GT(tight, 0u) << "seed " << seed;
    std::uint64_t m256 = 0;
    for (const LbeEncoder &enc : encs)
        m256 += symbolCount(enc.stats(), LbeSymbol::M256);
    EXPECT_GT(m256, 0u) << "seed " << seed;
}

TEST(LbeProperty, FloorNeverExceedsMeasure)
{
    for (std::uint64_t seed = 500; seed <= 503; seed++)
        floorEpisode(seed, LbeConfig{});
}

TEST(LbeProperty, FloorNeverExceedsMeasureSkewedConfigs)
{
    // Each config moves pointer widths away from the defaults: one-node
    // 128/256-bit tables make m128 and m256 6 bits (default 12 and 11),
    // an 8-word dictionary makes m32 5 bits (default 9), a 4095-node
    // 64-bit table makes m64 16 bits (default 12), and a one-node
    // 128-bit table under a 4095-node 256-bit one makes a z128 and an
    // m128 (11 bits) cheaper than an m256 (17).
    LbeConfig narrowTrees;
    narrowTrees.nodes128 = 1;
    narrowTrees.nodes256 = 1;
    LbeConfig smallDict;
    smallDict.dictBytes = 32;
    LbeConfig wide64;
    wide64.nodes64 = 4095;
    for (const LbeConfig &cfg : {narrowTrees, smallDict, wide64,
                                 descentConfig(), starvedConfig()}) {
        for (std::uint64_t seed = 510; seed <= 512; seed++)
            floorEpisode(seed, cfg);
    }
}

TEST(LbeProperty, FloorIsExactForZeroAndRepeatedLines)
{
    // An all-zero line is two forced z256s. A line repeating one chunk,
    // once the first copy is committed, is two m256s.
    const LbeConfig cfg;
    LbeEncoder enc(cfg);
    const LbeLinePlan zero = LbeLinePlan::of(CacheLine{});
    EXPECT_EQ(zero.floorBits(cfg.chunkFloorBits()), enc.measure(zero));
    CacheLine rep{};
    for (unsigned w = 0; w < kWordsPerLine; w++)
        rep.setWord32(w, 0x12345678u + (w % 8));
    const LbeLinePlan plan = LbeLinePlan::of(rep);
    enc.append(plan);
    EXPECT_EQ(enc.measure(plan), 2 * (5 + cfg.ptrBits256()));
    EXPECT_EQ(plan.floorBits(cfg.chunkFloorBits()), enc.measure(plan));
}

TEST(LbeProperty, FloorIsExactWhenADescentIsCheapest)
{
    // Under descentConfig() a chunk's cheapest encoding is a z128 and an
    // m128, not an m256. Line A commits a 128-bit node for half X as
    // chunk [X | 0]; line B's chunk [0 | X] then finds X but no 256-bit
    // node, and its other chunk is zero: z128 + m128 + z256.
    const LbeConfig cfg = descentConfig();
    EXPECT_EQ(cfg.chunkFloorBits(), 5 + 1 + 5u);
    LbeEncoder enc(cfg);
    CacheLine a{}, b{};
    for (unsigned w = 0; w < 4; w++) {
        a.setWord32(w, 0x9e3779b9u + w);
        b.setWord32(4 + w, 0x9e3779b9u + w);
    }
    enc.append(LbeLinePlan::of(a));
    const LbeLinePlan plan = LbeLinePlan::of(b);
    EXPECT_EQ(enc.measure(plan), 5 + (5 + 1) + 5u);
    EXPECT_EQ(plan.floorBits(cfg.chunkFloorBits()), enc.measure(plan));
}

TEST(LbeProperty, CountedOnesMatchEmittedStream)
{
    // The insert path counts the ones of each appended line instead of
    // emitting it; the count must equal the emitted stream's popcount,
    // line by line, across log flushes.
    for (const LbeConfig &cfg : {LbeConfig{}, starvedConfig()}) {
        LbeEncoder emitting(cfg), counting(cfg);
        Rng rng(9004);
        std::vector<CacheLine> history;
        for (int i = 0; i < 500; i++) {
            if (i > 0 && rng.chance(0.05)) {
                emitting.reset();
                counting.reset();
                history.clear();
            }
            const CacheLine l = makeLine(randomGen(rng), rng, history);
            history.push_back(l);
            const LbeLinePlan plan = LbeLinePlan::of(l);
            BitWriter out;
            const std::uint32_t bits = emitting.append(plan, &out);
            std::uint64_t ones = 0;
            ASSERT_EQ(counting.appendCountingOnes(plan, ones), bits)
                << "line " << i;
            ASSERT_EQ(ones, energy::popcountBits(out.words(),
                                                 out.sizeBits()))
                << "line " << i;
        }
        EXPECT_EQ(counting.stats(), emitting.stats());
    }
}

TEST(LbeProperty, RestoredEncoderContinuesIdentically)
{
    // restore() rebuilds the node-table filters, which the snapshot
    // does not hold. An encoder restored mid-stream must then encode
    // every later line exactly as the live one does. (The starved
    // tables fill early, so only the default ones are sure to match
    // at every level after the save.)
    for (const LbeConfig &cfg : {LbeConfig{}, starvedConfig()}) {
        LbeEncoder live(cfg);
        Rng rng(9005);
        std::vector<CacheLine> history;
        const auto next = [&] {
            const CacheLine l = makeLine(randomGen(rng), rng, history);
            history.push_back(l);
            return l;
        };
        for (int i = 0; i < 150; i++)
            live.append(next());
        const LbeStats atSave = live.stats();
        snap::Serializer s;
        live.save(s);
        LbeEncoder restored(cfg);
        snap::Deserializer d(s.frame());
        restored.restore(d);
        ASSERT_TRUE(d.ok()) << d.error();
        for (int i = 0; i < 300; i++) {
            const LbeLinePlan plan = LbeLinePlan::of(next());
            ASSERT_EQ(restored.measure(plan), live.measure(plan))
                << "line " << i;
            BitWriter a, b;
            ASSERT_EQ(restored.append(plan, &a), live.append(plan, &b))
                << "line " << i;
            ASSERT_EQ(a.words(), b.words()) << "line " << i;
        }
        EXPECT_EQ(restored.stats(), live.stats());
        if (cfg.nodes256 < LbeConfig{}.nodes256)
            continue;
        // Every node level matched after the restore, so every filter
        // was read.
        for (const LbeSymbol sym :
             {LbeSymbol::M64, LbeSymbol::M128, LbeSymbol::M256}) {
            EXPECT_GT(symbolCount(live.stats(), sym),
                      symbolCount(atSave, sym))
                << LbeStats::name(sym);
        }
    }
}

} // namespace
} // namespace comp
} // namespace morc
