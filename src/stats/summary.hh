/**
 * @file
 * Scalar statistics helpers: running means, geometric means, sampling.
 *
 * The paper reports arithmetic means (AMean) and geometric means (GMean)
 * over per-benchmark results, and samples compression ratio every 10 M
 * instructions; these helpers implement those reductions.
 */

#ifndef MORC_STATS_SUMMARY_HH
#define MORC_STATS_SUMMARY_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"

namespace morc {
namespace stats {

/** Running arithmetic mean. */
class RunningMean
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        n_ += 1;
    }

    double mean() const { return n_ == 0 ? 0.0 : sum_ / n_; }
    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }

    void
    clear()
    {
        sum_ = 0.0;
        n_ = 0;
    }

    void save(snap::Serializer &s) const { walk(*this, s); }
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.f64(self.sum_);
        io.u64(self.n_);
    }

    double sum_ = 0.0;
    std::uint64_t n_ = 0;
};

/** Arithmetic mean of a vector. */
inline double
amean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Geometric mean of a vector of positive values. */
inline double
gmean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/**
 * Periodic sampler: accumulates instantaneous observations at fixed
 * instruction intervals and reports their mean, mirroring the paper's
 * "compression ratios are sampled every 10M instructions".
 */
class PeriodicSampler
{
  public:
    explicit PeriodicSampler(std::uint64_t interval)
        : interval_(interval), nextSample_(interval)
    {}

    /** Restart sampling relative to instruction count @p now. */
    void
    restart(std::uint64_t now)
    {
        mean_.clear();
        nextSample_ = now + interval_;
    }

    /**
     * Advance to instruction count @p now; invokes @p observe() and
     * records its value for every interval boundary crossed.
     */
    template <typename Fn>
    void
    tick(std::uint64_t now, Fn &&observe)
    {
        while (now >= nextSample_) {
            mean_.add(observe());
            nextSample_ += interval_;
        }
    }

    /** Mean of samples so far; falls back to @p fallback with no samples. */
    double
    mean(double fallback) const
    {
        return mean_.count() == 0 ? fallback : mean_.mean();
    }

    std::uint64_t samples() const { return mean_.count(); }

    void save(snap::Serializer &s) const { walk(*this, s); }
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.expect(self.interval_, "periodic sampler interval mismatch");
        io.u64(self.nextSample_);
        io.part(self.mean_);
    }

    std::uint64_t interval_;
    std::uint64_t nextSample_;
    RunningMean mean_;
};

} // namespace stats
} // namespace morc

#endif // MORC_STATS_SUMMARY_HH
