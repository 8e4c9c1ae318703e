/**
 * @file
 * Zipf-distributed index sampling for value-pool selection.
 *
 * Data-value duplication in real programs is highly skewed (a few values
 * occur extremely often); the workload substrate models pools of words
 * whose popularity follows a Zipf distribution.
 */

#ifndef MORC_UTIL_ZIPF_HH
#define MORC_UTIL_ZIPF_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace morc {

/**
 * Samples indices in [0, n) with probability proportional to
 * 1 / (i+1)^theta using a precomputed inverse CDF table.
 *
 * A draw is the unit value u = (h >> 11) * 2^-53 of a 64-bit hash, and
 * its index is the first i whose normalized cumulative weight cdf[i]
 * (a double) is not below u, or n-1 if none is. Since (h >> 11) is an
 * integer and cdf[i] * 2^53 is exact, cdf[i] < u holds exactly when
 * floor(cdf[i] * 2^53) < (h >> 11): the table holds those integers and
 * the search compares them with the draw. A guide on the draw's top
 * eight bits bounds the binary search to the ranks whose cumulative
 * weight crosses the draw's 1/256 bucket.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta)
    {
        // Running sums first, stored as doubles in the integer table,
        // then rescaled in place: one pow pass, one table. The cast
        // truncates, which is floor for cumulative weights in [0, 1).
        // A weight of 1, or NaN when theta overflowed the sums, is
        // never below a draw, as in double compares, so it maps to
        // 2^53; every entry then stays within the guide's buckets.
        cdf_.reserve(n);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < n; i++) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf_.push_back(std::bit_cast<std::uint64_t>(sum));
        }
        // Bucket k's guide entry is the first rank whose entry reaches
        // k * 2^45, so each rank claims the buckets it is first to reach.
        std::uint64_t k = 0;
        for (std::uint64_t i = 0; i < n; i++) {
            const double p = std::bit_cast<double>(cdf_[i]) / sum;
            cdf_[i] = p >= 0.0 && p < 1.0
                          ? static_cast<std::uint64_t>(static_cast<std::int64_t>(
                                p * 9007199254740992.0))
                          : 1ull << 53;
            for (const std::uint64_t top = cdf_[i] >> kBucketShift; k <= top;
                 k++)
                guide_[k] = static_cast<std::uint32_t>(i);
        }
        for (; k <= kBuckets; k++)
            guide_[k] = static_cast<std::uint32_t>(n - 1);
    }

    /** Draw an index using randomness from @p rng (one next() call,
     *  the same draw as sampleHashed(rng.next())). */
    std::uint64_t sample(Rng &rng) const { return sampleHashed(rng.next()); }

    /**
     * Deterministic variant: map a hash value to an index with the same
     * skew. Used when a datum must be a pure function of its key.
     */
    std::uint64_t
    sampleHashed(std::uint64_t hash) const
    {
        const std::uint64_t x = hash >> 11;
        // The answer, the first rank reaching x, is no earlier than the
        // first to reach x's bucket and no later than the first to
        // reach the next bucket.
        std::uint64_t lo = guide_[x >> kBucketShift];
        std::uint64_t hi = guide_[(x >> kBucketShift) + 1];
        while (lo < hi) {
            const std::uint64_t mid = (lo + hi) / 2;
            if (cdf_[mid] < x)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::uint64_t size() const { return n_; }
    double theta() const { return theta_; }

  private:
    static constexpr unsigned kBuckets = 256;
    static constexpr unsigned kBucketShift = 53 - 8;

    std::uint64_t n_;
    double theta_;

    /** floor(cdf[i] * 2^53) per rank. */
    std::vector<std::uint64_t> cdf_;

    /** guide_[k]: the first rank whose table entry reaches k * 2^45,
     *  or n-1 if none does. Ranks fit 32 bits: a table of 2^32 ranks
     *  would take 32 GB. */
    std::array<std::uint32_t, kBuckets + 1> guide_{};
};

} // namespace morc

#endif // MORC_UTIL_ZIPF_HH
