/**
 * @file
 * SC2 statistical compressed cache (Arelakis & Stenstrom, ISCA 2014).
 *
 * SC2 Huffman-codes 32-bit words against a system-wide dictionary of the
 * most frequent values, built by sampling and maintained by (software)
 * retraining. Its cache organization resembles Adaptive's — set-based
 * with segment-granular data — but provisions 4x tags. Being inter-line
 * in spirit (the dictionary is shared), it beats intra-line schemes, but
 * the fixed-size dictionary and 4x tag ceiling cap it well below MORC.
 */

#ifndef MORC_CACHE_SC2_HH
#define MORC_CACHE_SC2_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/llc.hh"
#include "compress/huffman.hh"

namespace morc {
namespace cache {

/** SC2-style statistically compressed cache. */
class Sc2Cache : public Llc
{
  public:
    struct Config
    {
        std::uint64_t capacityBytes = 128 * 1024;
        unsigned ways = 8;
        unsigned tagFactor = 4; // 4x max compression
        unsigned segmentBytes = 8;
        unsigned decompressionLatency = 4;
        unsigned dictionarySymbols = 1024;
        /** Fills before the first table build. */
        std::uint64_t warmupFills = 4096;
        /** Fills between retrainings. */
        std::uint64_t retrainInterval = 65536;
    };

    explicit Sc2Cache(const Config &cfg);
    Sc2Cache();

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return cfg_.capacityBytes; }
    std::string name() const override { return "SC2"; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

    /** Exposed for tests. */
    bool trained() const { return trained_; }

    /** Adds dictionary training state on top of the base catalog. */
    void
    registerProbes(telemetry::Registry &reg,
                   const std::string &prefix) override
    {
        Llc::registerProbes(reg, prefix);
        reg.gauge(prefix + ".trained",
                  [this](Cycles) { return trained_ ? 1.0 : 0.0; });
        reg.counter(prefix + ".retrainings", [this](Cycles) {
            return static_cast<double>(stats_.retrainings);
        });
    }

  private:
    struct LineEntry
    {
        Addr tag = 0;
        bool dirty = false;
        bool compressed = false;
        unsigned segments = 0;
        std::uint64_t lastUse = 0;
        CacheLine data{};
    };

    struct Set
    {
        std::vector<LineEntry> lines;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr addr) const;
    std::uint32_t lineBits(const CacheLine &data) const;
    /** Emit the image the data array stores for @p data (Huffman stream
     *  under the current table, or the raw line), for wear accounting. */
    void lineImage(const CacheLine &data, bool compressed,
                   BitWriter &out) const;
    void maybeRetrain();

    Config cfg_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::vector<Set> sets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;

    comp::ValueSampler sampler_;
    comp::HuffmanTable table_;
    /** Exact counts table_ was trained from. The sampler keeps evolving
     *  after a (re)train, so restoring the table from the *current*
     *  counts would diverge; HuffmanTable::build is deterministic, so
     *  rebuilding from these reproduces table_ exactly. */
    std::unordered_map<std::uint32_t, std::uint64_t> trainFreqs_;
    bool trained_ = false;
    std::uint64_t fillsSinceTrain_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_SC2_HH
