/**
 * @file
 * Adaptive cache compression (Alameldeen & Wood, ISCA 2004), evaluated
 * with C-Pack per the MORC paper's methodology.
 *
 * Organization: each set doubles its tags (2x max compression) and keeps
 * its data area as 8-byte segments allocated *contiguously* per line
 * (which is what causes internal fragmentation and, on expansion,
 * compaction work). A global predictor decides whether to store a line
 * compressed: hits that only happened because compression kept extra
 * lines resident vote for compression (weighted by the memory latency
 * they saved); hits to compressed lines that would have been resident
 * anyway vote against (weighted by the decompression penalty).
 */

#ifndef MORC_CACHE_ADAPTIVE_HH
#define MORC_CACHE_ADAPTIVE_HH

#include <cstdint>
#include <vector>

#include "cache/llc.hh"
#include "compress/cpack.hh"

namespace morc {
namespace cache {

/** Adaptive compressed set-associative cache. */
class AdaptiveCache : public Llc
{
  public:
    struct Config
    {
        std::uint64_t capacityBytes = 128 * 1024;
        unsigned ways = 8;          // uncompressed ways per set
        unsigned tagFactor = 2;     // tag over-provisioning (max ratio)
        unsigned segmentBytes = 8;  // allocation granule
        unsigned decompressionLatency = 4; // flat penalty (methodology)
        std::int64_t predictorMemLatency = 100; // vote weights
    };

    explicit AdaptiveCache(const Config &cfg);
    AdaptiveCache();

    ReadResult read(Addr addr) override;
    FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return cfg_.capacityBytes; }
    std::string name() const override { return "Adaptive"; }
    check::AuditReport audit() const override;
    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

    /** Exposed for tests: current compress/don't-compress bias. */
    std::int64_t predictor() const { return predictor_; }

    /** Adds the adaptive predictor bias on top of the base catalog. */
    void
    registerProbes(telemetry::Registry &reg,
                   const std::string &prefix) override
    {
        Llc::registerProbes(reg, prefix);
        reg.gauge(prefix + ".predictor", [this](Cycles) {
            return static_cast<double>(predictor_);
        });
    }

  private:
    struct LineEntry
    {
        Addr tag = 0;
        /** False for shadow tags: evicted data whose tag is retained so
         *  the adaptive predictor can observe would-have-hit events. */
        bool hasData = false;
        bool dirty = false;
        bool compressed = false;
        unsigned segments = 0;
        std::uint64_t lastUse = 0;
        CacheLine data{};
    };

    struct Set
    {
        std::vector<LineEntry> lines; // LRU order maintained by lastUse
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    std::uint64_t setOf(Addr addr) const;
    /** Emit the image the data array stores for @p data (C-Pack stream
     *  when compressed, the raw line otherwise), for wear accounting. */
    static void lineImage(const CacheLine &data, bool compressed,
                          BitWriter &out);
    unsigned segmentsFor(std::uint32_t bits) const;
    unsigned segBudget() const;
    /** LRU stack depth of a line within its set (0 = MRU). */
    unsigned stackDepth(const Set &set, const LineEntry &line) const;
    void evictUntilFits(Set &set, unsigned needed_segments,
                        FillResult &result);

    Config cfg_;
    std::uint64_t numSets_; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::vector<Set> sets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t valid_ = 0;
    std::int64_t predictor_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_ADAPTIVE_HH
