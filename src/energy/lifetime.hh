/**
 * @file
 * L2C2-style NVM endurance model (Escuin et al., PAPERS.md).
 *
 * A compressed LLC on non-volatile memory must be ranked by write
 * endurance as well as by hit rate: every fill programs cells, and the
 * device dies when its hottest cells exhaust their program budget. This
 * module tracks that wear from the *actual emitted bitstreams* — each
 * scheme charges the bits it physically writes and the cells it flips
 * relative to the previous contents of the frame — so compression's
 * wear reduction is measured, never assumed.
 *
 * Composition:
 *  - popcount/flip helpers over BitWriter streams and raw lines, used
 *    by every scheme's insert path to compute per-write flip counts;
 *  - WearTracker: per-set/per-way write histograms plus totals, owned
 *    by cache::Llc and snapshot-complete;
 *  - forecastLifetime(): inter-set imbalance and a years-to-failure
 *    forecast under a configurable per-cell endurance budget.
 */

#ifndef MORC_ENERGY_LIFETIME_HH
#define MORC_ENERGY_LIFETIME_HH

#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/bitstream.hh"
#include "util/types.hh"

namespace morc {
namespace energy {

/** Population count of the first @p bits bits of @p words. */
std::uint64_t popcountBits(const std::vector<std::uint64_t> &words,
                           std::uint64_t bits);

/** Population count of bits [@p start_bit, @p end_bit) of @p words. */
std::uint64_t popcountRange(const std::vector<std::uint64_t> &words,
                            std::uint64_t start_bit,
                            std::uint64_t end_bit);

/**
 * Cells flipped when programming stream @p b over stream @p a: popcount
 * of the XOR, with the shorter stream zero-padded (unwritten cells hold
 * the erased state).
 */
std::uint64_t flipBits(const std::vector<std::uint64_t> &a,
                       std::uint64_t a_bits,
                       const std::vector<std::uint64_t> &b,
                       std::uint64_t b_bits);

/** Set bits of a raw 64-byte line. */
std::uint64_t linePopcount(const CacheLine &line);

/** Cells flipped overwriting raw line @p before with @p after. */
std::uint64_t lineFlips(const CacheLine &before, const CacheLine &after);

/** Emit the raw (uncompressed) image of @p line into @p out. */
void rawImage(const CacheLine &line, BitWriter &out);

/**
 * Per-frame write histogram for one cache.
 *
 * "Frame" is the scheme's natural physical write granule: a (set, way)
 * data entry for set-based schemes, a log for MORC. recordWrite charges
 * one frame; totals and the per-set distribution feed the lifetime
 * forecast and the morc_check counter cross-check.
 */
class WearTracker
{
  public:
    /** Reset to @p sets x @p ways zeroed frames. */
    void configure(std::uint64_t sets, std::uint64_t ways);

    /** Charge one physical write of @p bits_written programming
     *  @p bit_flips cells in frame (@p set, @p way). */
    void recordWrite(std::uint64_t set, std::uint64_t way,
                     std::uint64_t bits_written, std::uint64_t bit_flips);

    std::uint64_t sets() const { return sets_; }
    std::uint64_t ways() const { return ways_; }
    std::uint64_t totalWrites() const { return totalWrites_; }
    std::uint64_t totalBitsWritten() const { return totalBits_; }
    std::uint64_t totalBitFlips() const { return totalFlips_; }

    std::uint64_t
    setFlips(std::uint64_t set) const
    {
        return setFlips_[set];
    }

    std::uint64_t
    frameWrites(std::uint64_t set, std::uint64_t way) const
    {
        return frameWrites_[set * ways_ + way];
    }

    /** Mean per-set flip count (0 when no sets). */
    double meanSetFlips() const;

    /** Largest per-set flip count. */
    std::uint64_t maxSetFlips() const;

    /**
     * Inter-set wear imbalance: max over mean per-set flips. 1.0 means
     * perfectly leveled (or no writes at all); the hottest set ages
     * this factor faster than ideal wear-leveling would allow.
     */
    double imbalance() const;

    /** Normalized inter-set variance of flip counts (squared
     *  coefficient of variation; 0 when leveled or idle). */
    double setVariance() const;

    /** Zero all counters, keeping the configured geometry. */
    void clearCounts();

    /** Fold @p other's frames in as additional sets (banked LLCs). */
    void merge(const WearTracker &other);

    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t sets_ = 0;
    std::uint64_t ways_ = 0;
    std::vector<std::uint64_t> frameWrites_; // sets_ x ways_
    std::vector<std::uint64_t> setFlips_;    // per-set flip totals
    std::uint64_t totalWrites_ = 0;
    std::uint64_t totalBits_ = 0;
    std::uint64_t totalFlips_ = 0;
};

/** Device/technology constants for the forecast. */
struct LifetimeParams
{
    /** Per-cell program budget (PCM-class endurance). */
    double cellEnduranceWrites = 1.0e8;

    /** Simulated core clock (cycles -> seconds). */
    double clockHz = 2.0e9;
};

/** Forecast outputs (all deterministic functions of the inputs). */
struct LifetimeForecast
{
    /** Programmed bits per second of simulated time. */
    double writeBitsPerSec = 0;

    /** Cell flips per second, averaged over every data cell. */
    double flipsPerCellPerSec = 0;

    /** Inter-set wear imbalance (>= 1). */
    double imbalance = 1.0;

    /** Normalized inter-set variance of flips. */
    double setVariance = 0;

    /** Years until the hottest set's cells exhaust the endurance
     *  budget; infinite when the run wrote nothing. */
    double years = 0;
};

/**
 * Forecast device lifetime from a run's wear histogram.
 *
 * The hottest set ages imbalance() times faster than the mean cell, so
 *   years = endurance / (mean flips-per-cell-per-second x imbalance)
 * with the mean taken over @p capacity_bits data cells across
 * @p cycles of simulated time.
 */
LifetimeForecast forecastLifetime(const WearTracker &wear,
                                  std::uint64_t cycles,
                                  std::uint64_t capacity_bits,
                                  const LifetimeParams &params = {});

} // namespace energy
} // namespace morc

#endif // MORC_ENERGY_LIFETIME_HH
