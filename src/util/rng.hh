/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload generation must be exactly reproducible across runs and
 * platforms, so we avoid std::mt19937 seeding subtleties and implement
 * SplitMix64 (for hashing/seeding) and xoshiro256** (for streams).
 */

#ifndef MORC_UTIL_RNG_HH
#define MORC_UTIL_RNG_HH

#include <cstdint>

namespace morc {

/** One SplitMix64 step: maps any 64-bit value to a well-mixed one. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Mix two 64-bit values into one hash. */
constexpr std::uint64_t
mix64(std::uint64_t a, std::uint64_t b)
{
    return splitmix64(a ^ splitmix64(b));
}

/**
 * Integer form of a unit-interval draw's threshold test. A hash @p h
 * maps to the unit draw u = (h >> 11) * 2^-53, which is exact in
 * binary64, so `u < f` holds exactly when `(h >> 11) < unitThreshold(f)`:
 * ceil(f * 2^53) for f in (0, 1), 0 (never) for f <= 0 or NaN, and
 * 2^53 (always) for f >= 1.
 */
inline std::uint64_t
unitThreshold(double f)
{
    if (!(f > 0.0))
        return 0;
    if (f >= 1.0)
        return 1ull << 53;
    return static_cast<std::uint64_t>(
        __builtin_ceil(f * 9007199254740992.0));
}

/** True when the unit draw of @p h is below the probability whose
 *  unitThreshold() is @p threshold. */
constexpr bool
unitBelow(std::uint64_t h, std::uint64_t threshold)
{
    return (h >> 11) < threshold;
}

/**
 * xoshiro256** generator. Small, fast, and fully deterministic from its
 * 64-bit seed (expanded through SplitMix64 per the reference
 * implementation's recommendation).
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x = splitmix64(x + 0x9e3779b97f4a7c15ull);
            word = x;
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here; tiny modulo bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1): the unit draw of next() (see
     *  unitThreshold()). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric gap: number of failures before a success with
     * probability @p p. Used to batch non-memory instructions.
     */
    std::uint64_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 0;
        if (p <= 0.0)
            return ~0ull;
        double u = uniform();
        if (u <= 0.0)
            u = 1e-18;
        // floor(ln(u) / ln(1-p))
        double g = __builtin_log(u) / __builtin_log1p(-p);
        return g < 0 ? 0 : static_cast<std::uint64_t>(g);
    }

    /** Snapshot walk (see snapshot/snapshot.hh): the four state
     *  words. */
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        for (auto &word : self.state_)
            io.u64(word);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace morc

#endif // MORC_UTIL_RNG_HH
