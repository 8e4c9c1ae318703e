/**
 * @file
 * MORC: the log-based, manycore-oriented compressed LLC (Section 3).
 *
 * Storage is divided into fixed-size logs. Cache lines are compressed
 * with LBE and *appended* to one of several active logs (content-aware
 * multi-log selection); tags are base-delta compressed and appended
 * alongside. A Line-Map Table (LMT) — over-provisioned for the maximum
 * compression ratio and 2-way column-associative — redirects addresses
 * to logs. In-place modification is impossible: write-backs re-append
 * and invalidate the old copy. Space is reclaimed by whole-log eviction
 * (FIFO, with priority reuse of all-invalid logs).
 *
 * Reads pay a position-dependent decompression latency: the log must be
 * decoded from its beginning up to the requested line (16 B/cycle output,
 * after the compressed tags are decoded at 8 tags/cycle) — the paper's
 * central throughput-for-latency trade.
 */

#ifndef MORC_CORE_MORC_HH
#define MORC_CORE_MORC_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/llc.hh"
#include "compress/lbe.hh"
#include "compress/tagcodec.hh"

namespace morc {
namespace core {

/** All MORC sizing and policy knobs (defaults = the paper's Section 4). */
struct MorcConfig
{
    /** Uncompressed data capacity. */
    std::uint64_t capacityBytes = 128 * 1024;

    /** Log size; 512 B balances ratio against decompression latency. */
    unsigned logBytes = 512;

    /** Active logs for content-aware multi-log compression. */
    unsigned activeLogs = 8;

    /** LMT entries per uncompressed line (max compression ratio). */
    unsigned lmtFactor = 8;

    /** LMT associativity (2 = column-associative, Section 3.2.2). */
    unsigned lmtWays = 2;

    /** MORCMerged: tags overflow into the data log (Section 3.2.6). */
    bool mergedTags = false;

    /** Separate tag store scale, in multiples of a log's uncompressed
     *  tag footprint (the evaluated MORC uses 2x). */
    double tagStoreFactor = 2.0;

    /** Bases tracked by the tag codec (2 in the default config). */
    unsigned tagBases = 2;

    /** Multi-log tie margin: within this, seed the least-used log. */
    double fudge = 0.05;

    /** Disable LBE (lines stored raw); used by the Figure 12 study. */
    bool compressionEnabled = true;

    /** Unlimited tags + LMT entries; used by the Figure 13 limit study. */
    bool unlimitedMeta = false;

    /** Decompressor output rate (Table 5: LBE does 16 B/cycle). */
    unsigned decompressBytesPerCycle = 16;

    /** Compressed-tag decode rate (Section 3.2.4: 8 tags/cycle). */
    unsigned tagsPerCycle = 8;

    /** Access tags and data in parallel instead of serially. The paper
     *  evaluates the serial arrangement to save energy (Section 3.2.4:
     *  "we have chosen in our results to access tags and then data
     *  sequentially"); parallel overlaps the two decoders, so the
     *  access costs max(tag, data) instead of tag + data cycles. */
    bool parallelTagData = false;

    comp::LbeConfig lbe{};

    unsigned numLogs() const
    {
        return static_cast<unsigned>(capacityBytes / logBytes);
    }

    std::uint64_t lmtEntries() const
    {
        return lmtFactor * (capacityBytes / kLineSize);
    }

    /** Tag budget per log in bits (separate tag store). */
    std::uint64_t tagBudgetBits() const
    {
        const double uncompressed =
            static_cast<double>(logBytes / kLineSize) *
            (comp::TagCodec::kFullTagBits + 2);
        return static_cast<std::uint64_t>(tagStoreFactor * uncompressed);
    }
};

/** The MORC log-structured compressed cache. */
class LogCache : public cache::Llc
{
  public:
    explicit LogCache(const MorcConfig &cfg);
    LogCache();

    cache::ReadResult read(Addr addr) override;
    cache::FillResult insert(Addr addr, const CacheLine &data, bool dirty) override;

    std::uint64_t validLines() const override { return valid_; }
    std::uint64_t capacityBytes() const override { return cfg_.capacityBytes; }
    std::string name() const override
    {
        return cfg_.mergedTags ? "MORCMerged" : "MORC";
    }

    const MorcConfig &config() const { return cfg_; }

    /** Fraction of appended lines that are now invalid (Figure 12). */
    double invalidLineFraction() const;

    /** Logs holding at least one valid line. */
    std::uint64_t liveLogs() const;

    /** Non-empty logs whose every line is invalid (free to reuse). */
    std::uint64_t allInvalidLogs() const;

    /** Fraction of LMT entries in use (valid lines over capacity;
     *  unlimited-metadata mode reports against lmtEntries()). */
    double lmtOccupancy() const;

    /** Mean fill (data + tag bits over the data+tag budget) of the
     *  active logs — how full the append frontier runs. */
    double activeFillRatio() const;

    /** Compressed bytes currently resident across all logs. */
    std::uint64_t compressedBytesResident() const;

    /** MORC probe catalog on top of the base Llc set: live_logs,
     *  all_invalid_logs, lmt_occupancy, active_fill_ratio,
     *  compressed_bytes plus the flush/reuse/conflict counters. */
    void registerProbes(telemetry::Registry &reg,
                        const std::string &prefix) override;

    /** Aggregated LBE symbol statistics across all logs (Figure 7). */
    comp::LbeStats lbeStats() const;

    /** Aggregate log occupancy snapshot (diagnostics and benches). */
    struct LogSnapshot
    {
        std::uint64_t logs = 0;
        std::uint64_t linesTotal = 0;
        std::uint64_t linesValid = 0;
        std::uint64_t dataBits = 0;
        std::uint64_t tagBits = 0;
        std::uint64_t dataFullLogs = 0; //< logs >90% data-full
        std::uint64_t tagFullLogs = 0;  //< logs >90% tag-budget-full
        std::uint64_t tagNewBases = 0;  //< cumulative new-base tags
        std::uint64_t tagDeltas = 0;    //< cumulative delta tags
        std::uint64_t tagDeltaBits = 0; //< cumulative delta payload bits
    };

    LogSnapshot snapshot() const;

    /**
     * Full structural audit (check/auditor.hh): per-log space
     * accounting against the data/tag budgets, tag-stream re-decode
     * through the base-delta codec, LMT<->log cross-consistency in both
     * directions, FIFO victim-queue integrity, and global counter
     * conservation. Deterministic and side-effect free.
     */
    check::AuditReport audit() const override;

    /** Append every log (lines, LBE dictionaries, tag codec bases,
     *  compressed tag streams), the LMT, FIFO, and counters. */
    void saveState(snap::Serializer &s) const override;

    /** Restore state written by saveState(); the MorcConfig must match
     *  structurally (log/LMT sizing, policy knobs). */
    void restoreState(snap::Deserializer &d) override;

    /**
     * Test-only fault injection: corrupt one valid LMT entry (flip the
     * low bit of its stored line number), chosen deterministically from
     * @p seed. Returns false when no valid entry exists. Used by the
     * morc_check mutation test to prove the auditor *detects* a broken
     * LMT rather than silently passing.
     */
    bool debugCorruptLmt(std::uint64_t seed);

  private:
    /** One line appended to a log. */
    struct LogLine
    {
        Addr lineNum;
        bool valid;
        std::uint32_t dataBits;
        std::uint32_t tagBits;
        CacheLine data;
    };

    /** One log: stream state plus resident line records. */
    struct Log
    {
        std::vector<LogLine> lines;
        std::uint64_t dataBits = 0;
        std::uint64_t tagBits = 0;
        std::uint32_t validCount = 0;
        bool open = false;
        std::uint64_t closedSeq = 0;
        comp::LbeEncoder lbe;
        comp::TagCodec tags;
        /** The log's actual compressed tag stream. The hardware decodes
         *  it on every access; the simulator charges that latency from
         *  counts, and the auditor re-decodes the stream to prove it
         *  reproduces exactly the appended line numbers. */
        BitWriter tagStream;

        Log(const comp::LbeConfig &lbe_cfg, unsigned bases)
            : lbe(lbe_cfg), tags(bases)
        {}
    };

    /** An LMT entry. Hardware stores only {state, log index}; lineNum is
     *  simulator bookkeeping standing in for the tag check the hardware
     *  performs against the log's compressed tags (hit/miss outcomes and
     *  charged latencies are identical; see read()). */
    struct LmtEntry
    {
        bool valid = false;
        bool modified = false;
        std::uint32_t logIdx = 0;
        Addr lineNum = 0;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    /** Every valid LMT entry names a log holding a valid copy of its
     *  line (a hit reads that copy; map entries are keyed by that
     *  line), and in unlimited-metadata mode every valid line has a map
     *  entry (a log flush looks it up). */
    bool lmtReachesLines() const;

    /** Candidate LMT slots for a line (column-associative ways). */
    void slotsFor(Addr line_num, std::uint64_t *out) const;

    /** Locate a resident line: LMT slot + position in its log. */
    bool findResident(Addr line_num, std::uint64_t *slot_out,
                      std::uint32_t *log_out, std::size_t *pos_out);

    /** Invalidate the resident copy a valid LMT entry points to,
     *  writing it back if modified. */
    void invalidateEntry(std::uint64_t slot, cache::FillResult &result);

    /** Trial-compress a line (pre-decomposed as @p plan, whose data
     *  bits are at least @p floor_bits) against log @p g. Returns total
     *  bits or ~0 if it does not fit. The plan is computed once per
     *  insert and shared by all 8 active-log trials (batched trial
     *  compression). Budgets and the floor are checked before LBE
     *  encoding and the budget during it, so a log the line cannot fit
     *  costs at most a partial encode (budget-bounded trials,
     *  DESIGN.md §11). */
    std::uint64_t trialBits(const Log &g, const comp::LbeLinePlan &plan,
                            std::uint64_t floor_bits, Addr line_num) const;

    /** Close an active log and activate a replacement. */
    void rotateLog(unsigned active_slot, cache::FillResult &result);

    /** Flush a victim log: write back modified lines, invalidate LMT. */
    void flushLog(std::uint32_t log_idx, cache::FillResult &result);

    /** Append @p data (pre-decomposed as @p plan) to log @p g; updates
     *  the LMT entry at @p slot. */
    void appendLine(std::uint32_t log_idx, Addr line_num,
                    const CacheLine &data, const comp::LbeLinePlan &plan,
                    bool dirty, std::uint64_t slot);

    MorcConfig cfg_;
    /** cfg_.lbe.chunkFloorBits(), the per-chunk input of every insert's
     *  data-bit floor. */
    std::uint32_t chunkFloorBits_; // morc-analyze: allow(snapshot-completeness) derived: cfg_.lbe
    std::vector<Log> logs_;
    std::vector<std::uint32_t> active_; // indices of active logs
    /** Closed logs in close order (FIFO victims; reuse scans its head). */
    std::deque<std::uint32_t> closedFifo_;

    /** Finite LMT (default mode). */
    std::vector<LmtEntry> lmt_;
    std::uint64_t lmtMask_ = 0; // morc-analyze: allow(snapshot-completeness) derived: lmt_.size() - 1

    /** Unlimited-metadata mode uses a map keyed by line number; the
     *  "slot" is the line number itself. */
    std::unordered_map<Addr, LmtEntry> lmtMap_;

    /** Per-active-log trial scores for the current insert, cached so
     *  the near-tie fudge pass, and the choice after a rotation, reuse
     *  them instead of re-trialing (trialBits is pure, so the cached
     *  scores are exact). Reused across inserts to avoid per-insert
     *  allocation. */
    std::vector<std::uint64_t> trialScores_; // morc-analyze: allow(snapshot-completeness) re-assigned per insert

    std::uint64_t valid_ = 0;
    std::uint64_t appended_ = 0;
    std::uint64_t seqCounter_ = 0;
};

} // namespace core
} // namespace morc

#endif // MORC_CORE_MORC_HH
