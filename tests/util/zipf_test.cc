/**
 * @file
 * Statistical acceptance tests for the Zipf sampler.
 *
 * Every workload knob in the KV subsystem (key popularity, token
 * vocabularies, value pools) leans on ZipfSampler actually producing
 * the advertised 1/(i+1)^theta skew; a subtly broken inverse-CDF would
 * silently shift every hit rate in the study. These tests run a
 * chi-squared goodness-of-fit of observed rank frequencies against the
 * analytic pmf — with tail ranks merged so every bin keeps an expected
 * count >= 5 — and accept below the 99.9% critical value
 * (Wilson-Hilferty approximation). Seeds are fixed, so the tests are
 * deterministic, not flaky.
 *
 * A negative control (uniform draws tested against a skewed pmf must
 * FAIL the fit) proves the test has the power to reject, and the
 * hashed variant is additionally pinned as a pure function. The
 * integer search is pinned draw for draw to the double-table search it
 * replaced, at every edge of its table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hh"
#include "util/zipf.hh"

namespace morc {
namespace {

/** Analytic Zipf pmf over ranks [0, n). */
std::vector<double>
zipfPmf(std::uint64_t n, double theta)
{
    std::vector<double> pmf(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; i++) {
        pmf[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
        sum += pmf[i];
    }
    for (auto &p : pmf)
        p /= sum;
    return pmf;
}

/** 99.9% chi-squared critical value (Wilson-Hilferty). */
double
chiSquaredCritical999(double df)
{
    const double z = 3.0902; // Phi^-1(0.999)
    const double a = 2.0 / (9.0 * df);
    const double c = 1.0 - a + z * std::sqrt(a);
    return df * c * c * c;
}

struct Fit
{
    double chi2 = 0.0;
    double df = 0.0;
};

/**
 * Chi-squared statistic of @p counts against @p pmf with @p total
 * draws. Ranks are binned greedily from the head so every bin's
 * expected count is >= 5 (the classic applicability condition); the
 * trailing partial bin merges into its predecessor.
 */
Fit
chiSquared(const std::vector<std::uint64_t> &counts,
           const std::vector<double> &pmf, double total)
{
    // Greedy binning from the head; a trailing bin whose expected
    // count falls under 5 merges into its predecessor.
    std::vector<std::pair<double, double>> bins; // (observed, expected)
    double obs = 0.0, exp = 0.0;
    for (std::size_t i = 0; i < counts.size(); i++) {
        obs += static_cast<double>(counts[i]);
        exp += pmf[i] * total;
        if (exp >= 5.0) {
            bins.emplace_back(obs, exp);
            obs = exp = 0.0;
        }
    }
    if (exp > 0.0) {
        if (!bins.empty()) {
            bins.back().first += obs;
            bins.back().second += exp;
        } else {
            bins.emplace_back(obs, exp);
        }
    }
    Fit f;
    for (const auto &b : bins)
        f.chi2 += (b.first - b.second) * (b.first - b.second) / b.second;
    f.df = bins.size() > 1 ? static_cast<double>(bins.size() - 1) : 1.0;
    return f;
}

std::vector<std::uint64_t>
drawCounts(std::uint64_t n, std::uint64_t total,
           const std::function<std::uint64_t()> &next)
{
    std::vector<std::uint64_t> counts(n, 0);
    for (std::uint64_t i = 0; i < total; i++) {
        const std::uint64_t r = next();
        EXPECT_LT(r, n);
        counts[r]++;
    }
    return counts;
}

TEST(Zipf, RngSamplesFitTheAnalyticDistribution)
{
    const struct
    {
        std::uint64_t n;
        double theta;
    } cases[] = {{64, 0.6}, {1024, 0.99}, {4096, 1.2}};
    const std::uint64_t kDraws = 200'000;

    for (const auto &c : cases) {
        ZipfSampler z(c.n, c.theta);
        Rng rng(0x5eedull + c.n);
        const auto counts = drawCounts(
            c.n, kDraws, [&]() { return z.sample(rng); });
        const Fit f = chiSquared(counts, zipfPmf(c.n, c.theta),
                                 static_cast<double>(kDraws));
        EXPECT_LT(f.chi2, chiSquaredCritical999(f.df))
            << "n=" << c.n << " theta=" << c.theta
            << " chi2=" << f.chi2 << " df=" << f.df;
    }
}

TEST(Zipf, HashedSamplesFitTheAnalyticDistribution)
{
    const std::uint64_t n = 512;
    const double theta = 1.05;
    const std::uint64_t kDraws = 200'000;
    ZipfSampler z(n, theta);
    std::uint64_t i = 0;
    const auto counts = drawCounts(n, kDraws, [&]() {
        return z.sampleHashed(mix64(0x7a69, ++i));
    });
    const Fit f = chiSquared(counts, zipfPmf(n, theta),
                             static_cast<double>(kDraws));
    EXPECT_LT(f.chi2, chiSquaredCritical999(f.df))
        << "chi2=" << f.chi2 << " df=" << f.df;
}

TEST(Zipf, UniformDrawsFailTheSkewedFit)
{
    // Negative control: if uniform data passes a theta=1.2 fit, the
    // test statistic is too weak to defend anything.
    const std::uint64_t n = 256;
    const std::uint64_t kDraws = 200'000;
    Rng rng(0xfeed);
    const auto counts = drawCounts(n, kDraws, [&]() {
        return static_cast<std::uint64_t>(rng.uniform() * n) % n;
    });
    const Fit f = chiSquared(counts, zipfPmf(n, 1.2),
                             static_cast<double>(kDraws));
    EXPECT_GT(f.chi2, chiSquaredCritical999(f.df));
}

TEST(Zipf, ThetaZeroIsUniform)
{
    const std::uint64_t n = 128;
    const std::uint64_t kDraws = 200'000;
    ZipfSampler z(n, 0.0);
    Rng rng(0xcafe);
    const auto counts =
        drawCounts(n, kDraws, [&]() { return z.sample(rng); });
    const Fit f = chiSquared(counts, zipfPmf(n, 0.0),
                             static_cast<double>(kDraws));
    EXPECT_LT(f.chi2, chiSquaredCritical999(f.df));
}

TEST(Zipf, HashedVariantIsPure)
{
    ZipfSampler z(1024, 0.99);
    for (std::uint64_t h : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
        EXPECT_EQ(z.sampleHashed(h), z.sampleHashed(h));
        EXPECT_LT(z.sampleHashed(h), 1024u);
    }
    // Head ranks must dominate tail ranks.
    ZipfSampler skew(64, 1.2);
    Rng rng(42);
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 20'000; i++) {
        const std::uint64_t r = skew.sample(rng);
        if (r == 0)
            head++;
        if (r == 63)
            tail++;
    }
    EXPECT_GT(head, 10 * (tail + 1));
}

/** The double-table sampler the integer table replaced: normalized
 *  running sums, binary-searched with the unit draw of a hash. */
struct ReferenceZipf
{
    std::vector<double> cdf;

    ReferenceZipf(std::uint64_t n, double theta)
    {
        double sum = 0.0;
        for (std::uint64_t i = 0; i < n; i++) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf.push_back(sum);
        }
        for (auto &c : cdf)
            c /= sum;
    }

    std::uint64_t
    draw(double u) const
    {
        std::uint64_t lo = 0, hi = cdf.size() - 1;
        while (lo < hi) {
            const std::uint64_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::uint64_t
    hashed(std::uint64_t h) const
    {
        return draw((h >> 11) * (1.0 / 9007199254740992.0));
    }
};

TEST(ZipfSampler, IntegerSearchMatchesDoubleReference)
{
    struct Shape
    {
        std::uint64_t n;
        double theta;
    };
    // The last two overflow the weights (a restored snapshot's theta
    // is outside data): NaN entries must draw as the doubles did.
    const Shape shapes[] = {{1, 0.0},      {2, 0.0},        {48, 0.9},
                            {64, 0.8},     {96, 1.1},       {128, 0.8},
                            {262144, 0.6}, {262144, 1.2},   {16, -2000.0},
                            {4, std::nan("")}};
    for (const Shape &c : shapes) {
        SCOPED_TRACE(testing::Message() << "n=" << c.n << " theta=" << c.theta);
        const ZipfSampler z(c.n, c.theta);
        const ReferenceZipf ref(c.n, c.theta);
        // Every edge of the table: the draw just below, on and just
        // above floor(cdf[i] * 2^53), the integer the search compares.
        const std::uint64_t stride = c.n > 4096 ? 64 : 1;
        for (std::uint64_t i = 0; i < c.n; i += stride) {
            if (!(ref.cdf[i] >= 0.0 && ref.cdf[i] <= 1.0))
                continue;
            const auto edge = static_cast<std::uint64_t>(
                std::floor(std::ldexp(ref.cdf[i], 53)));
            for (std::uint64_t x = edge == 0 ? 0 : edge - 1; x <= edge + 1;
                 x++) {
                if (x >> 53)
                    continue;
                const std::uint64_t h = x << 11 | (i & 0x7ff);
                ASSERT_EQ(z.sampleHashed(h), ref.hashed(h))
                    << "rank " << i << " draw " << x;
            }
        }
        for (std::uint64_t k = 0; k < 65536; k++) {
            const std::uint64_t h = mix64(0x21bf, k);
            ASSERT_EQ(z.sampleHashed(h), ref.hashed(h)) << "hash " << h;
        }
        // sample() consumes one next() and draws what the double
        // search drew from uniform() on the same stream.
        Rng rng(c.n), twin = rng;
        for (int k = 0; k < 4096; k++)
            ASSERT_EQ(z.sample(rng), ref.draw(twin.uniform()));
        EXPECT_EQ(rng.next(), twin.next());
    }
}

} // namespace
} // namespace morc
