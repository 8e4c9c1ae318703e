/**
 * @file
 * Tests for the utility layer: bit streams, RNG, Zipf, stats helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"
#include "util/types.hh"
#include "util/zipf.hh"

namespace morc {
namespace {

TEST(BitStream, RoundTripVariousWidths)
{
    BitWriter w;
    Rng rng(1);
    std::vector<std::pair<std::uint64_t, unsigned>> written;
    for (int i = 0; i < 1000; i++) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.below(64));
        std::uint64_t v = rng.next();
        if (bits < 64)
            v &= (1ull << bits) - 1;
        written.emplace_back(v, bits);
        w.put(v, bits);
    }
    BitReader r(w);
    for (const auto &[v, bits] : written)
        ASSERT_EQ(r.get(bits), v);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitStream, SizeAccounting)
{
    BitWriter w;
    w.put(1, 3);
    w.put(0xff, 8);
    EXPECT_EQ(w.sizeBits(), 11u);
    EXPECT_EQ(w.sizeBytes(), 2u);
    w.clear();
    EXPECT_EQ(w.sizeBits(), 0u);
}

TEST(BitStream, CrossWordBoundary)
{
    BitWriter w;
    w.put(0, 60);
    w.put(0xabcd, 16); // straddles the first 64-bit word
    BitReader r(w);
    EXPECT_EQ(r.get(60), 0u);
    EXPECT_EQ(r.get(16), 0xabcdu);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(9);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GeometricMeanMatchesExpectation)
{
    Rng rng(3);
    const double p = 0.25;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; i++)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, UnitThresholdMatchesDoubleTest)
{
    // unitBelow(h, unitThreshold(f)) must answer (h >> 11) * 2^-53 < f
    // for every draw; the answer can only change at the edge T, so the
    // draws around it and at both ends of the range cover every case.
    const double fs[] = {0.0,
                         5e-324,
                         0.05,
                         0.25,
                         1.0 / 3.0,
                         0.7,
                         std::nextafter(1.0, 0.0),
                         1.0,
                         1.5,
                         -0.1,
                         std::nan(""),
                         std::numeric_limits<double>::infinity()};
    const std::uint64_t top = (1ull << 53) - 1;
    for (const double f : fs) {
        const std::uint64_t t = unitThreshold(f);
        EXPECT_LE(t, top + 1) << f;
        for (const std::uint64_t x :
             {std::uint64_t{0}, t - 1, t, t + 1, top}) {
            if (x > top)
                continue;
            for (const std::uint64_t low : {0ull, 0x7ffull}) {
                const std::uint64_t h = x << 11 | low;
                const double u = (h >> 11) * (1.0 / 9007199254740992.0);
                EXPECT_EQ(unitBelow(h, t), u < f)
                    << "f=" << f << " x=" << x;
            }
        }
    }
}

TEST(Zipf, SkewFavorsLowIndices)
{
    ZipfSampler z(100, 0.99);
    Rng rng(4);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; i++)
        counts[z.sample(rng)]++;
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(Zipf, HashedIsDeterministic)
{
    ZipfSampler z(64, 0.8);
    EXPECT_EQ(z.sampleHashed(12345), z.sampleHashed(12345));
    for (std::uint64_t h = 0; h < 1000; h++)
        ASSERT_LT(z.sampleHashed(splitmix64(h)), 64u);
}

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineBase(0x12345), 0x12340u);
    EXPECT_EQ(lineNumber(0x12345), 0x48du);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(65));
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
    EXPECT_EQ(ceilLog2(1), 0u);
}

TEST(Types, FloorLog2MatchesShiftLoop)
{
    // The shift loop floorLog2 once was, 0 included.
    const auto loop = [](std::uint64_t v) {
        unsigned l = 0;
        while (v >>= 1)
            l++;
        return l;
    };
    std::vector<std::uint64_t> values = {0, 1};
    for (unsigned k = 1; k < 64; k++) {
        const std::uint64_t p = std::uint64_t{1} << k;
        values.insert(values.end(), {p - 1, p, p + 1});
    }
    values.push_back(~std::uint64_t{0});
    for (const std::uint64_t v : values)
        EXPECT_EQ(floorLog2(v), loop(v)) << v;
    static_assert(floorLog2(0) == 0 && floorLog2(1) == 0 &&
                  floorLog2(~std::uint64_t{0}) == 63);
}

TEST(Types, CacheLineAccessors)
{
    CacheLine l;
    l.setWord32(3, 0xdeadbeef);
    EXPECT_EQ(l.word32(3), 0xdeadbeefu);
    l.setWord64(0, 0x0123456789abcdefull);
    EXPECT_EQ(l.word64(0), 0x0123456789abcdefull);
    EXPECT_EQ(l.word32(0), 0x89abcdefu);
    EXPECT_FALSE(l.isZero());
    EXPECT_TRUE(CacheLine{}.isZero());
}

TEST(Histogram, BucketsAndLabels)
{
    stats::Histogram h({64, 128, 512});
    h.record(1);
    h.record(64);
    h.record(65);
    h.record(600, 2);
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
    EXPECT_EQ(h.label(0), "<=64");
    EXPECT_EQ(h.label(1), "65-128");
    EXPECT_EQ(h.label(3), ">512");
}

TEST(Summary, Means)
{
    EXPECT_DOUBLE_EQ(stats::amean({1, 2, 3}), 2.0);
    EXPECT_NEAR(stats::gmean({1, 8}), 2.8284, 1e-3);
    EXPECT_DOUBLE_EQ(stats::amean({}), 0.0);
}

TEST(Summary, PeriodicSampler)
{
    stats::PeriodicSampler s(10);
    int calls = 0;
    s.tick(0, [&] { calls++; return 1.0; });
    EXPECT_EQ(calls, 0); // first sample is at the first boundary
    s.tick(25, [&] { calls++; return 3.0; });
    EXPECT_EQ(calls, 2); // boundaries at 10 and 20
    EXPECT_DOUBLE_EQ(s.mean(0.0), 3.0);
    s.restart(25);
    EXPECT_DOUBLE_EQ(s.mean(-1.0), -1.0);
    s.tick(36, [&] { return 9.0; });
    EXPECT_DOUBLE_EQ(s.mean(0.0), 9.0);
}

} // namespace
} // namespace morc
