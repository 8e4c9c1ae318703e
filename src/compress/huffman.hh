/**
 * @file
 * Value-frequency Huffman compression, modelling SC2 (Arelakis &
 * Stenstrom, ISCA 2014).
 *
 * SC2 keeps a system-wide dictionary of the most frequent 32-bit values,
 * Huffman-codes them, and escape-codes everything else. The dictionary
 * is built by sampling values during execution (software-managed in the
 * original; here a training API the SC2 cache model drives). A line's
 * compressed size is the sum of its words' code lengths.
 */

#ifndef MORC_COMPRESS_HUFFMAN_HH
#define MORC_COMPRESS_HUFFMAN_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/bitstream.hh"
#include "util/types.hh"

namespace morc {
namespace comp {

/** Canonical Huffman code table over 32-bit values plus an escape. */
class HuffmanTable
{
  public:
    /**
     * Build from value frequencies. Keeps the @p max_symbols most
     * frequent values; everything else maps to the escape symbol whose
     * cost is its code length plus 32 literal bits.
     */
    static HuffmanTable
    build(const std::unordered_map<std::uint32_t, std::uint64_t> &freqs,
          unsigned max_symbols);

    /** Code length in bits for value @p w (escape cost included). */
    std::uint32_t
    bitsFor(std::uint32_t w) const
    {
        auto it = codeLen_.find(w);
        if (it != codeLen_.end())
            return it->second;
        return escapeLen_ + 32;
    }

    /** Encode @p w into @p out. */
    void encode(std::uint32_t w, BitWriter &out) const;

    /** Decode one value from @p in. */
    std::uint32_t decode(BitReader &in) const;

    bool empty() const { return codeLen_.empty(); }
    std::size_t symbols() const { return codeLen_.size(); }
    unsigned escapeLen() const { return escapeLen_; }

  private:
    struct CodeWord
    {
        std::uint32_t bits; // MSB-first code value
        std::uint8_t len;
    };

    /** value -> code length (fast size queries). */
    std::unordered_map<std::uint32_t, std::uint32_t> codeLen_;
    /** value -> full code word (encode path). */
    std::unordered_map<std::uint32_t, CodeWord> codes_;
    CodeWord escape_{0, 0};
    unsigned escapeLen_ = 32;

    /** Canonical decode tables: per length, first code and symbol base. */
    std::vector<std::uint32_t> firstCode_;
    std::vector<std::uint32_t> firstSymbol_;
    std::vector<std::uint32_t> countOfLen_;
    std::uint32_t escapeSymbolIndex_ = 0;
    std::vector<std::uint32_t> valueOfSymbol_;
};

/**
 * The sampling + retraining front-end: accumulates value frequencies and
 * rebuilds the table on demand, mimicking SC2's software-managed
 * dictionary maintenance.
 */
class ValueSampler
{
  public:
    explicit ValueSampler(unsigned max_symbols = 1024)
        : maxSymbols_(max_symbols)
    {}

    /** Account the 16 words of a line observed at fill time. */
    void
    observe(const CacheLine &line)
    {
        for (unsigned i = 0; i < kWordsPerLine; i++)
            freqs_[line.word32(i)]++;
        observed_++;
    }

    /** Rebuild the Huffman table from the counts so far. */
    HuffmanTable train() const { return HuffmanTable::build(freqs_, maxSymbols_); }

    /** Decay counts so retraining tracks phase changes. */
    void
    decay()
    {
        for (auto &kv : freqs_)
            kv.second = (kv.second + 1) / 2;
    }

    std::uint64_t linesObserved() const { return observed_; }

    /** Current frequency map (e.g. to capture the exact counts a table
     *  was trained from, so a restore can rebuild that table). */
    const std::unordered_map<std::uint32_t, std::uint64_t> &
    freqs() const
    {
        return freqs_;
    }

    /** Append counts in sorted key order (the map itself is unordered,
     *  but nothing downstream depends on its iteration order). */
    void save(snap::Serializer &s) const { walk(*this, s); }
    void restore(snap::Deserializer &d) { walk(*this, d); }

    /** Shared walk of a value-frequency map, sorted by value. */
    template <typename Map, typename IO>
    static void
    walkFreqMap(Map &m, IO &io)
    {
        io.sortedMap(m, 4 + 8, [&](auto &value, auto &freq) {
            io.u32(value);
            io.u64(freq);
        });
    }

  private:
    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.expect(self.maxSymbols_,
                  "value sampler symbol-capacity mismatch");
        io.u64(self.observed_);
        walkFreqMap(self.freqs_, io);
    }

    unsigned maxSymbols_;
    std::uint64_t observed_ = 0;
    std::unordered_map<std::uint32_t, std::uint64_t> freqs_;
};

} // namespace comp
} // namespace morc

#endif // MORC_COMPRESS_HUFFMAN_HH
