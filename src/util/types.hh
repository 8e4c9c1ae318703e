/**
 * @file
 * Fundamental types and constants shared by every MORC module.
 */

#ifndef MORC_UTIL_TYPES_HH
#define MORC_UTIL_TYPES_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace morc {

/** Physical address type. The evaluated machine has a 48-bit space. */
using Addr = std::uint64_t;

/** Cycle count type. */
using Cycles = std::uint64_t;

/** Cache line size used throughout the paper and this reproduction. */
constexpr unsigned kLineSize = 64;

/** log2 of the cache line size. */
constexpr unsigned kLineShift = 6;

/** Physical address width assumed by the overhead analysis (Section 3.3). */
constexpr unsigned kPhysAddrBits = 48;

/** Number of 32-bit words in a cache line. */
constexpr unsigned kWordsPerLine = kLineSize / 4;

/**
 * A 64-byte cache line payload.
 *
 * Compression operates on real data, so lines carry their full contents.
 * Accessor helpers view the payload at the granularities LBE cares about.
 */
struct CacheLine
{
    std::array<std::uint8_t, kLineSize> bytes{};

    /** Read the 32-bit word at word index @p i (little-endian). */
    std::uint32_t
    word32(unsigned i) const
    {
        std::uint32_t w;
        std::memcpy(&w, bytes.data() + i * 4, 4);
        return w;
    }

    /** Write the 32-bit word at word index @p i. */
    void
    setWord32(unsigned i, std::uint32_t w)
    {
        std::memcpy(bytes.data() + i * 4, &w, 4);
    }

    /** Read the 64-bit word at index @p i. */
    std::uint64_t
    word64(unsigned i) const
    {
        std::uint64_t w;
        std::memcpy(&w, bytes.data() + i * 8, 8);
        return w;
    }

    /** Write the 64-bit word at index @p i. */
    void
    setWord64(unsigned i, std::uint64_t w)
    {
        std::memcpy(bytes.data() + i * 8, &w, 8);
    }

    /** True when every byte of the line is zero. */
    bool
    isZero() const
    {
        for (unsigned i = 0; i < kLineSize / 8; i++) {
            if (word64(i) != 0)
                return false;
        }
        return true;
    }

    bool operator==(const CacheLine &other) const = default;
};

/** Align an address down to its cache-line base. */
constexpr Addr
lineBase(Addr a)
{
    return a & ~static_cast<Addr>(kLineSize - 1);
}

/** Cache-line index of an address (address divided by line size). */
constexpr Addr
lineNumber(Addr a)
{
    return a >> kLineShift;
}

/** Integer ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** True when @p v is a power of two (and non-zero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2 for a non-zero value; 0 for 0. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v | 1)) - 1;
}

/** Ceiling of log2; number of bits needed to index @p v distinct items. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

} // namespace morc

#endif // MORC_UTIL_TYPES_HH
