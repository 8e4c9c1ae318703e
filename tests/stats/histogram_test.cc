/**
 * @file
 * stats::Histogram edge cases: the degenerate no-bounds histogram, the
 * overflow bucket, and the merge/difference operators the warm-up
 * rebase path depends on. These paths carried real bugs (label() used
 * to dereference bounds_.back() with no bounds), so they get tests of
 * their own rather than riding the sweep goldens.
 */

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace morc {
namespace {

TEST(Histogram, EmptyBoundsIsSingleCatchAllBucket)
{
    stats::Histogram h;
    ASSERT_EQ(h.numBuckets(), 1u);
    EXPECT_EQ(h.label(0), "all");
    h.record(0);
    h.record(12345);
    h.record(~0ull);
    EXPECT_EQ(h.count(0), 3u);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 1.0);
}

TEST(Histogram, BoundsAreInclusiveAndOverflowCatchesTheRest)
{
    stats::Histogram h({10, 20});
    ASSERT_EQ(h.numBuckets(), 3u);
    h.record(10); // inclusive upper bound -> bucket 0
    h.record(11); // first value of bucket 1
    h.record(20); // inclusive upper bound -> bucket 1
    h.record(21); // overflow
    h.record(1u << 30, 5); // weighted overflow
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 6u);
    EXPECT_EQ(h.total(), 9u);
    EXPECT_EQ(h.label(0), "<=10");
    EXPECT_EQ(h.label(1), "11-20");
    EXPECT_EQ(h.label(2), ">20");
}

TEST(Histogram, FractionOfEmptyHistogramIsZero)
{
    stats::Histogram h({10});
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.0);
}

TEST(Histogram, MergeAddsBucketWise)
{
    stats::Histogram a({10, 20});
    stats::Histogram b({10, 20});
    a.record(5);
    a.record(15);
    b.record(15, 3);
    b.record(25);
    a += b;
    EXPECT_EQ(a.count(0), 1u);
    EXPECT_EQ(a.count(1), 4u);
    EXPECT_EQ(a.count(2), 1u);
    EXPECT_EQ(a.total(), 6u);
    // b is unchanged.
    EXPECT_EQ(b.total(), 4u);
}

TEST(Histogram, DifferenceSubtractsWarmupSnapshot)
{
    // The rebase pattern: snapshot at end of warm-up, subtract at end
    // of the measured run.
    stats::Histogram full({10, 20});
    full.record(5);
    full.record(15, 2);
    full.record(25);
    stats::Histogram warmup({10, 20});
    warmup.record(5);
    warmup.record(15);
    const stats::Histogram measured = full - warmup;
    EXPECT_EQ(measured.count(0), 0u);
    EXPECT_EQ(measured.count(1), 1u);
    EXPECT_EQ(measured.count(2), 1u);
    EXPECT_EQ(measured.total(), 2u);
}

TEST(Histogram, DifferenceOfSelfIsEmpty)
{
    stats::Histogram h({10});
    h.record(3, 7);
    const stats::Histogram d = h - h;
    EXPECT_EQ(d.total(), 0u);
    EXPECT_EQ(d.count(0), 0u);
}

TEST(Histogram, ClearZeroesCountsButKeepsBucketing)
{
    stats::Histogram h({10});
    h.record(5);
    h.record(50);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_EQ(h.count(1), 0u);
    ASSERT_EQ(h.numBuckets(), 2u);
    h.record(5);
    EXPECT_EQ(h.count(0), 1u);
}

#if MORC_CHECKS_ENABLED
TEST(HistogramDeath, MismatchedBucketingIsRejected)
{
    stats::Histogram a({10});
    stats::Histogram b({10, 20});
    EXPECT_DEATH(a += b, "different bucketing");
    EXPECT_DEATH((void)(a - b), "different bucketing");
}

TEST(HistogramDeath, UnderflowingDifferenceIsRejected)
{
    stats::Histogram a({10});
    stats::Histogram b({10});
    b.record(5);
    EXPECT_DEATH((void)(a - b), "underflows bucket");
}
#endif

} // namespace
} // namespace morc
