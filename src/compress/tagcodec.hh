/**
 * @file
 * MORC tag compression (Section 3.2.4, Table 2).
 *
 * Tags appended to a log are encoded as base-delta values against their
 * immediate predecessor using a DEFLATE-style distance code:
 *
 *   code 0-3   -> distance 1-4        (0 precision bits)
 *   code 4-5   -> distance 5-8        (1 bit)
 *   code 6-7   -> distance 9-16       (2 bits)
 *   ...
 *   code 28-29 -> distance 16385-32768 (13 bits)
 *   code 30-31 -> new base (full tag follows)
 *
 * Each entry additionally carries (a) a sign bit, (b) a validity bit,
 * and — in the multi-base variant — (c) a base-selection bit. Distances
 * are in units of 64-byte cache lines; deltas beyond 32768 lines (2 MB)
 * are encoded as a new base.
 */

#ifndef MORC_COMPRESS_TAGCODEC_HH
#define MORC_COMPRESS_TAGCODEC_HH

#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/bitstream.hh"
#include "util/types.hh"

namespace morc {
namespace comp {

/** Encoder state for the tags of one log. */
class TagCodec
{
  public:
    /** Width of a full (uncompressed) tag: line number of a 48b address. */
    static constexpr unsigned kFullTagBits = kPhysAddrBits - kLineShift;

    /** Distance code width. */
    static constexpr unsigned kCodeBits = 5;

    /** Largest delta expressible without a new base (lines). */
    static constexpr std::uint64_t kMaxDelta = 32768;

    /**
     * @param num_bases 1 for the basic scheme, 2 for the multi-base
     *                  variant the paper defaults to.
     */
    explicit TagCodec(unsigned num_bases = 2);

    /**
     * Cost in bits of appending the tag for @p line_number, without
     * committing state (for trial compression against multiple logs).
     */
    std::uint32_t measure(std::uint64_t line_number) const;

    /**
     * Append a tag; updates base state. Optionally emits the bit stream.
     * @return bits consumed.
     */
    std::uint32_t append(std::uint64_t line_number,
                         BitWriter *out = nullptr);

    /** Forget all base state (log flush). */
    void reset();

    unsigned numBases() const { return numBases_; }

    /** Diagnostics: appended tag mix. */
    std::uint64_t newBaseCount() const { return newBases_; }
    std::uint64_t deltaCount() const { return deltas_; }
    std::uint64_t deltaBitsTotal() const { return deltaBitsTotal_; }

    /** Per-entry fixed bits: validity plus base-select when present. */
    unsigned
    overheadBits() const
    {
        return 1 + (numBases_ > 1 ? 1 : 0);
    }

    /** Append base state and diagnostic counters. */
    void save(snap::Serializer &s) const { walk(*this, s); }

    /** Restore state written by save(); base count must match. */
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.section("TAGC", [&] {
            const char *bases = "tag codec base-count mismatch";
            io.expect(self.numBases_, bases);
            io.fixedVec(self.bases_, 8, bases,
                        [&](auto &b) { io.u64(b); });
            io.fixedVec(self.baseValid_, 1, bases,
                        [&](auto &&v) { io.boolean(v); });
            io.fixedVec(self.baseUse_, 8, bases,
                        [&](auto &u) { io.u64(u); });
            io.u64(self.useClock_);
            io.u64(self.newBases_);
            io.u64(self.deltas_);
            io.u64(self.deltaBitsTotal_);
        });
    }

    struct Plan
    {
        unsigned base; // which base the delta is against
        std::uint32_t bits;
        bool newBase;
    };

    Plan plan(std::uint64_t line_number) const;

    /** Bits of a delta encoding (code + sign + precision), or 0 if the
     *  delta needs a new base. */
    static std::uint32_t deltaBits(std::uint64_t distance);

    unsigned numBases_;
    std::vector<std::uint64_t> bases_;
    std::vector<bool> baseValid_;
    std::vector<std::uint64_t> baseUse_; // LRU clocks for base victims
    std::uint64_t useClock_ = 0;
    std::uint64_t newBases_ = 0;
    std::uint64_t deltas_ = 0;
    std::uint64_t deltaBitsTotal_ = 0;
};

/**
 * Decoder for tag streams; reconstructs the appended tag sequence to
 * prove decodability in tests.
 */
class TagDecoder
{
  public:
    explicit TagDecoder(unsigned num_bases = 2);

    /** Decode the next tag entry. */
    std::uint64_t next(BitReader &in);

    void reset();

  private:
    unsigned numBases_;
    std::vector<std::uint64_t> bases_;
    std::vector<bool> baseValid_;
};

/** Distance-code table lookup: code index and precision bits for a
 *  distance in [1, 32768]. Shared by encoder and tests. */
struct TagDistanceCode
{
    unsigned code;
    unsigned precisionBits;
    std::uint64_t rangeBase; // smallest distance of this code

    static TagDistanceCode forDistance(std::uint64_t distance);
    static std::uint64_t rangeStart(unsigned code);
    static unsigned precisionOf(unsigned code);
};

} // namespace comp
} // namespace morc

#endif // MORC_COMPRESS_TAGCODEC_HH
