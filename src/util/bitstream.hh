/**
 * @file
 * Bit-granular writer/reader used by the compression codecs.
 *
 * All codecs in this project (LBE, C-Pack, FPC, Huffman, the tag codec)
 * produce variable-length bit streams; these helpers keep the encoders
 * honest — compressed sizes are measured from actually emitted bits, and
 * decoders consume the same stream, which the round-trip tests verify.
 */

#ifndef MORC_UTIL_BITSTREAM_HH
#define MORC_UTIL_BITSTREAM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check.hh"

namespace morc {

/** Append-only bit stream writer. Bits are written LSB-first per word. */
class BitWriter
{
  public:
    /** Append the low @p nbits bits of @p value. */
    void
    put(std::uint64_t value, unsigned nbits)
    {
        // Hot path: checked only in MORC_AUDIT builds. Writing more
        // than a word's worth would shift by >= 64 below (UB).
        MORC_DCHECK(nbits <= 64, "put of %u bits exceeds one word",
                    nbits);
        if (nbits == 0)
            return;
        if (nbits < 64)
            value &= (1ull << nbits) - 1;
        unsigned written = 0;
        while (written < nbits) {
            const unsigned word = bitCount_ >> 6;
            const unsigned off = bitCount_ & 63;
            if (word >= words_.size())
                words_.push_back(0);
            const unsigned room = 64 - off;
            const unsigned take = std::min(room, nbits - written);
            words_[word] |= (value >> written) << off;
            written += take;
            bitCount_ += take;
        }
    }

    /** Total number of bits written so far. */
    std::uint64_t sizeBits() const { return bitCount_; }

    /** Size rounded up to whole bytes. */
    std::uint64_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** Backing words, for handoff to a BitReader. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Discard all contents. */
    void
    clear()
    {
        words_.clear();
        bitCount_ = 0;
    }

    /**
     * Snapshot walk (see snapshot/snapshot.hh) of the bit count and the
     * words, in the order the owning layout fixed. On load the count
     * must fit the words exactly.
     */
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io, bool count_first)
    {
        if (count_first)
            io.u64(self.bitCount_);
        io.vecU64(self.words_);
        if (!count_first)
            io.u64(self.bitCount_);
        io.check(self.bitCount_ <= self.words_.size() * 64 &&
                     self.bitCount_ + 63 >= self.words_.size() * 64,
                 "bit stream count does not fit its words");
    }

  private:
    std::vector<std::uint64_t> words_;
    std::uint64_t bitCount_ = 0;
};

/** Sequential reader over a BitWriter's stream. */
class BitReader
{
  public:
    explicit BitReader(const BitWriter &w)
        : words_(&w.words()), limit_(w.sizeBits())
    {}

    /**
     * Read @p nbits bits. Out-of-range reads are checked in MORC_AUDIT
     * builds (loud failure with the offending position); in release the
     * word-index clamp below keeps the access inside the backing vector
     * so a violated limit yields garbage bits, not out-of-bounds UB.
     */
    std::uint64_t
    get(unsigned nbits)
    {
        MORC_DCHECK(nbits <= 64, "get of %u bits exceeds one word",
                    nbits);
        MORC_DCHECK(pos_ + nbits <= limit_,
                    "read of %u bits at position %llu overruns the "
                    "%llu-bit stream",
                    nbits, static_cast<unsigned long long>(pos_),
                    static_cast<unsigned long long>(limit_));
        std::uint64_t value = 0;
        unsigned got = 0;
        while (got < nbits) {
            const unsigned word = pos_ >> 6;
            if (word >= words_->size())
                break; // past the stream: only checked builds diagnose
            const unsigned off = pos_ & 63;
            const unsigned take = std::min(64 - off, nbits - got);
            std::uint64_t chunk = (*words_)[word] >> off;
            if (take < 64)
                chunk &= (1ull << take) - 1;
            value |= chunk << got;
            got += take;
            pos_ += take;
        }
        return value;
    }

    /** Bits remaining before the write limit. */
    std::uint64_t remaining() const { return limit_ - pos_; }

    /** Current bit position. */
    std::uint64_t pos() const { return pos_; }

  private:
    const std::vector<std::uint64_t> *words_;
    std::uint64_t limit_;
    std::uint64_t pos_ = 0;
};

} // namespace morc

#endif // MORC_UTIL_BITSTREAM_HH
