/**
 * @file
 * Bucketed histogram used for latency and symbol-usage distributions.
 */

#ifndef MORC_STATS_HISTOGRAM_HH
#define MORC_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hh"
#include "snapshot/snapshot.hh"

namespace morc {
namespace stats {

/**
 * Histogram over user-defined bucket upper bounds. A value lands in the
 * first bucket whose (inclusive) upper bound is >= value; values above
 * every bound land in a final overflow bucket.
 */
class Histogram
{
  public:
    /** @param upper_bounds Inclusive upper bound of each bucket (none:
     *  a single catch-all bucket). */
    explicit Histogram(std::vector<std::uint64_t> upper_bounds = {})
        : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0)
    {}

    /** Record one sample with optional weight. */
    void
    record(std::uint64_t value, std::uint64_t weight = 1)
    {
        std::size_t i = 0;
        while (i < bounds_.size() && value > bounds_[i])
            i++;
        counts_[i] += weight;
        total_ += weight;
    }

    /** Number of buckets, including the overflow bucket. */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Raw count of bucket @p i. */
    std::uint64_t count(std::size_t i) const { return counts_[i]; }

    /** Inclusive upper bound of bucket @p i (not the overflow bucket). */
    std::uint64_t upperBound(std::size_t i) const { return bounds_[i]; }

    /** Fraction of all weight that fell in bucket @p i. */
    double
    fraction(std::size_t i) const
    {
        return total_ == 0
                   ? 0.0
                   : static_cast<double>(counts_[i]) /
                         static_cast<double>(total_);
    }

    /** Human-readable label for bucket @p i ("<=64", "65-128", ">512").
     *  With no bounds there is a single catch-all bucket, "all". */
    std::string
    label(std::size_t i) const
    {
        if (bounds_.empty())
            return "all";
        if (i == counts_.size() - 1)
            return ">" + std::to_string(bounds_.back());
        const std::uint64_t lo = i == 0 ? 0 : bounds_[i - 1] + 1;
        if (lo == 0)
            return "<=" + std::to_string(bounds_[0]);
        return std::to_string(lo) + "-" + std::to_string(bounds_[i]);
    }

    std::uint64_t total() const { return total_; }

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }

    void
    clear()
    {
        for (auto &c : counts_)
            c = 0;
        total_ = 0;
    }

    /** Append bucketing and counts to a snapshot. */
    void save(snap::Serializer &s) const { walk(*this, s, false); }

    /** Restore counts from a snapshot; the serialized bucketing must
     *  match this histogram's (bounds are structural configuration),
     *  and a mismatch never resizes the live counts. */
    void restore(snap::Deserializer &d) { walk(*this, d, false); }

    /**
     * Snapshot walk (see snapshot/snapshot.hh): bounds, counts, total.
     * @p bounds_are_state loads the bucketing too, for histograms whose
     * bounds are themselves state (warm-up copies of caller-owned
     * histograms, journaled records); otherwise it must match.
     */
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io, bool bounds_are_state)
    {
        if (bounds_are_state) {
            io.vecU64(self.bounds_);
            if constexpr (IO::kLoading)
                self.counts_.assign(self.bounds_.size() + 1, 0);
        } else {
            io.expect(self.bounds_, "histogram bucketing mismatch");
        }
        io.fixedVec(self.counts_, 8, "histogram bucket count mismatch",
                    [&](auto &c) { io.u64(c); });
        io.u64(self.total_);
    }

    /** Merge another histogram's counts; bucketing must match. */
    Histogram &
    operator+=(const Histogram &o)
    {
        MORC_CHECK(bounds_ == o.bounds_,
                   "merging histograms with different bucketing "
                   "(%zu vs %zu bounds)",
                   bounds_.size(), o.bounds_.size());
        for (std::size_t i = 0; i < counts_.size(); i++)
            counts_[i] += o.counts_[i];
        total_ += o.total_;
        return *this;
    }

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;

    friend Histogram operator-(const Histogram &a, const Histogram &b);
};

/** Bucket-wise difference (before/after rebasing, e.g. subtracting a
 *  warm-up snapshot); @p a must dominate @p b bucket by bucket. */
inline Histogram
operator-(const Histogram &a, const Histogram &b)
{
    MORC_CHECK(a.bounds_ == b.bounds_,
               "differencing histograms with different bucketing "
               "(%zu vs %zu bounds)",
               a.bounds_.size(), b.bounds_.size());
    Histogram d(a.bounds_);
    for (std::size_t i = 0; i < a.counts_.size(); i++) {
        MORC_CHECK(a.counts_[i] >= b.counts_[i],
                   "histogram difference underflows bucket %zu", i);
        d.counts_[i] = a.counts_[i] - b.counts_[i];
    }
    d.total_ = a.total_ - b.total_;
    return d;
}

} // namespace stats
} // namespace morc

#endif // MORC_STATS_HISTOGRAM_HH
