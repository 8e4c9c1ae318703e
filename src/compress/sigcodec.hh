/**
 * @file
 * Touché-style signature codec (Hong et al., PAPERS.md).
 *
 * Touché reaches compressed-cache capacity from an *unmodified* tag
 * array by storing short hashed signatures of the lines packed into a
 * data block instead of widening the tag entry. A lookup compares the
 * requested line's signature against the stored ones; a match is only a
 * probable hit — the full identity travels with the compressed data and
 * is verified after decompression, so a colliding signature costs a
 * decompress-and-verify round trip, never a wrong-data hit.
 *
 * This module owns both halves of that contract:
 *  - signatureOf(): the line-number -> signature hash (kSignatureBits
 *    wide; deliberately narrow so the false-positive path is a living
 *    code path, not dead insurance);
 *  - SigCodec/SigDecoder: the metadata stream codec packing a way's
 *    signature slots. Consecutive slots of one superblock compress the
 *    same kind of data and often repeat a signature prefix, so each
 *    entry is a 1-bit repeat flag or a literal — the same
 *    measure/append/reset shape as comp::TagCodec, with a decoder that
 *    proves the stream reconstructible.
 */

#ifndef MORC_COMPRESS_SIGCODEC_HH
#define MORC_COMPRESS_SIGCODEC_HH

#include <cstdint>

#include "snapshot/snapshot.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace morc {
namespace comp {

/** Encoder state for one way's signature slots. */
class SigCodec
{
  public:
    /** Signature width. Narrow by design: with 8-bit signatures a
     *  4-line superblock collides internally for roughly 2% of
     *  superblocks, so differential fuzzing exercises the
     *  decompress-and-verify repair path constantly. */
    static constexpr unsigned kSignatureBits = 8;

    /** Hash a line number to its stored signature. */
    static std::uint16_t
    signatureOf(std::uint64_t line_number)
    {
        const std::uint64_t h = splitmix64(line_number);
        // Fold all 64 hash bits so neighboring lines decorrelate.
        const std::uint64_t folded =
            h ^ (h >> 32) ^ (h >> 16) ^ (h >> 48);
        return static_cast<std::uint16_t>(folded &
                                          ((1u << kSignatureBits) - 1));
    }

    /**
     * Cost in bits of appending @p sig without committing state (trial
     * packing against a way's metadata budget).
     */
    std::uint32_t
    measure(std::uint16_t sig) const
    {
        return 1 + (hasPrev_ && sig == prev_ ? 0 : kSignatureBits);
    }

    /**
     * Append a signature; updates repeat state. Optionally emits the
     * bit stream. @return bits consumed.
     */
    std::uint32_t append(std::uint16_t sig, BitWriter *out = nullptr);

    /** Forget the repeat context (way re-packed from scratch). */
    void reset();

    /** Diagnostics: appended entry mix. */
    std::uint64_t repeatCount() const { return repeats_; }
    std::uint64_t literalCount() const { return literals_; }

    /** Append repeat context and diagnostic counters. */
    void save(snap::Serializer &s) const { walk(*this, s); }

    /** Restore state written by save(). */
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.section("SIGC", [&] {
            io.boolean(self.hasPrev_);
            io.u32(self.prev_, 1u << kSignatureBits,
                   "signature codec literal out of range");
            io.u64(self.repeats_);
            io.u64(self.literals_);
        });
    }

    bool hasPrev_ = false;
    std::uint16_t prev_ = 0;
    std::uint64_t repeats_ = 0;
    std::uint64_t literals_ = 0;
};

/**
 * Decoder for signature streams; reconstructs the appended sequence to
 * prove decodability in tests and audits.
 */
class SigDecoder
{
  public:
    /** Decode the next signature entry. */
    std::uint16_t next(BitReader &in);

    void reset();

  private:
    bool hasPrev_ = false;
    std::uint16_t prev_ = 0;
};

} // namespace comp
} // namespace morc

#endif // MORC_COMPRESS_SIGCODEC_HH
