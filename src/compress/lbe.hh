/**
 * @file
 * Large-Block Encoding (LBE), the compression algorithm introduced by
 * MORC (Section 3.2.5).
 *
 * LBE consumes input in 256-bit chunks and looks for exact matches at
 * 32/64/128/256-bit granularities. Only the 32-bit dictionary holds data;
 * the larger granularities are binary-tree nodes whose children are
 * entries one size smaller. Encoding symbols and their codes follow
 * Table 3 of the paper:
 *
 *   u32 00+32   m32 01+ptr    z32 1010      u8 1011+8    u16 100+16
 *   m64 1100+p  z64 1101      m128 11100+p  z128 11101
 *   m256 11110+p z256 11111
 *
 * Incompressible 32-bit words with 16 or 24 upper zero bits are truncated
 * (u16/u8, significance-based compression). After each 256-bit chunk,
 * tree nodes are allocated for the 64/128/256-bit sub-chunks that failed
 * to match, so later identical chunks can match at large granularity.
 *
 * The encoder supports trial compression (measure without committing) so
 * MORC's multi-log selection can score a line against all active logs.
 * That trial path is the simulator's hottest loop, so it is engineered
 * accordingly (DESIGN.md §11): dictionaries and tree-node tables are
 * flat arrays probed with the SIMD kernels in util/simd.hh — the
 * committed 32-bit dictionary through a bucketized hash index
 * (hashFind8) resolving a whole chunk per call, tree nodes by
 * first-match scan; both return exactly what the old per-word hash
 * lookups did, bit for bit. The per-line 256-bit chunk decomposition
 * is precomputed once in an LbeLinePlan and shared by all 8 per-insert
 * trials, trial scratch state is arena-reused across calls, and the
 * measure path is a compile-time clone of encodeLine with all
 * bit-stream output stripped.
 *
 * Budget-bounded trials. Most trials score a line against a log it
 * cannot fit: counted on the perfbench workloads at seed 0, 84% of
 * fig6-morc trials (72% over the 512 B data budget, 12% over the 2x
 * tag store) and 81% of kv-morc trials. MORC rejects a log on its tag
 * budget before any LBE work, and otherwise hands measure() the log's
 * remaining data budget as a limit. The trial clone returns once its
 * running score passes the limit, and never allocates the tree nodes
 * that follow the last chunk (a trial is never committed). The result
 * is exact: the score only grows while a line is encoded, so a score
 * returned early exceeds the limit exactly when the full score would,
 * and the caller reads no score beyond the limit. Trials against
 * empty logs and trials that fit, the winner among them, still score
 * every symbol, and append() runs the whole encoder, so emitted bits,
 * wear and the Figure 7 symbol counts are unchanged (DESIGN.md §11).
 *
 * Work whose answer is known. Four more kinds of insert-path work are
 * skipped because their result is known before they start; each skip
 * is exact (DESIGN.md §11). LbeLinePlan::floorBits() charges a z256
 * per all-zero chunk and, per other chunk, the cheapest encoding any
 * non-zero chunk has with every lookup hitting (computed once per
 * config), so no measure() is below it and a log with less room is a
 * no-fit with no LBE work. Each committed node table carries a
 * presence filter whose clear bit proves a key absent, so a lookup
 * that would miss skips the scan. appendCountingOnes() counts the 1
 * bits of the stream append() would emit instead of emitting it. And
 * MORC re-scores only the fresh log after a rotation, since the other
 * active logs did not change.
 * Counted per insert on the perfbench workloads at seed 1, these cut
 * LBE trial encodes from 7.53 to 6.35 on fig6-morc (8.79 to 8.03 on
 * kv-morc) and node-table scans from 20.7 to 4.4 (63.6 to 12.0).
 */

#ifndef MORC_COMPRESS_LBE_HH
#define MORC_COMPRESS_LBE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/bitstream.hh"
#include "util/types.hh"

namespace morc {
namespace comp {

/** Symbol identifiers, used for Figure 7's usage distribution. */
enum class LbeSymbol : std::uint8_t
{
    U32, M32, Z32, U8, U16, M64, Z64, M128, Z128, M256, Z256, NumSymbols
};

/** Per-symbol usage counters (weighted by represented data size). */
struct LbeStats
{
    std::uint64_t count[static_cast<int>(LbeSymbol::NumSymbols)] = {};
    /** Of which, counts that encoded all-zero data (z* plus zero u*). */
    std::uint64_t zeroCount[static_cast<int>(LbeSymbol::NumSymbols)] = {};

    void
    add(LbeSymbol s, bool zero)
    {
        count[static_cast<int>(s)]++;
        if (zero)
            zeroCount[static_cast<int>(s)]++;
    }

    bool operator==(const LbeStats &) const = default;

    /** Bytes of input data one use of symbol @p s represents. */
    static unsigned
    dataBytes(LbeSymbol s)
    {
        switch (s) {
          case LbeSymbol::M64:
          case LbeSymbol::Z64:
            return 8;
          case LbeSymbol::M128:
          case LbeSymbol::Z128:
            return 16;
          case LbeSymbol::M256:
          case LbeSymbol::Z256:
            return 32;
          default:
            return 4;
        }
    }

    static const char *name(LbeSymbol s);
};

/** Sizing knobs for an LBE engine. */
struct LbeConfig
{
    /** Bytes of 32-bit data dictionary (paper sizes it at 512 B). */
    unsigned dictBytes = 512;

    /**
     * Max binary-tree nodes at 64/128/256-bit granularity. Only the
     * 32-bit dictionary holds data (the paper's 512 B); tree nodes are
     * two small pointers each, so they are provisioned generously —
     * skimping here starves m64/m128/m256 of match candidates because
     * one-off pairs exhaust the tables before popular chunks recur.
     * With index 0 reserved for the hardwired all-zero entry, pointers
     * are 8/7/6 bits.
     */
    unsigned nodes64 = 255;
    unsigned nodes128 = 127;
    unsigned nodes256 = 63;

    unsigned entries32() const { return dictBytes / 4; }
    unsigned ptrBits32() const { return ceilLog2(entries32()); }
    unsigned ptrBits64() const { return ceilLog2(nodes64 + 1); }
    unsigned ptrBits128() const { return ceilLog2(nodes128 + 1); }
    unsigned ptrBits256() const { return ceilLog2(nodes256 + 1); }

    /**
     * The fewest data bits an encoder sized by this config can spend on
     * a 256-bit chunk that holds a non-zero word, every lookup hitting:
     * the cheaper of an m256 and a descent, where a descent holds at
     * least one non-zero half and a sibling no cheaper than its zero
     * symbol or another such half, down to the cheaper of an m32 and a
     * u8 literal. Input to LbeLinePlan::floorBits().
     */
    unsigned chunkFloorBits() const;
};

/**
 * A cache line pre-decomposed into LBE's two 256-bit chunks, with the
 * zero scan done once (SIMD). Computing the plan once per insert and
 * scoring it against all 8 active logs is what makes multi-log trial
 * compression cheap: the per-line work (word extraction, zero
 * detection) no longer repeats per log.
 */
struct LbeLinePlan
{
    struct Chunk
    {
        std::uint32_t w[8];
        /** Bit i set when w[i] == 0. */
        unsigned zeroMask;

        bool allZero() const { return zeroMask == 0xff; }
        bool zero(unsigned i) const { return (zeroMask >> i) & 1; }
        /** 64-bit sub-chunk q (word pair 2q, 2q+1) is all zero. */
        bool zero64(unsigned q) const
        {
            return ((zeroMask >> (2 * q)) & 3) == 3;
        }
        /** 128-bit sub-chunk h (word quad) is all zero. */
        bool zero128(unsigned h) const
        {
            return ((zeroMask >> (4 * h)) & 0xf) == 0xf;
        }
    };

    Chunk chunk[2];

    static LbeLinePlan of(const CacheLine &line);

    /**
     * The fewest data bits an encoder can spend on this line, given
     * @p chunk_floor_bits, its config's LbeConfig::chunkFloorBits(): an
     * all-zero chunk is a z256, which the encoder always takes there,
     * and any other chunk costs at least that floor. So no measure() is
     * below it.
     */
    std::uint32_t floorBits(unsigned chunk_floor_bits) const;
};

/**
 * Streaming LBE encoder. One encoder instance embodies the dictionary
 * state of one compression stream (one MORC log).
 */
class LbeEncoder
{
  public:
    explicit LbeEncoder(const LbeConfig &cfg = LbeConfig{});

    /** measure() limit that never stops a trial early. */
    static constexpr std::uint32_t kNoLimit = ~0u;

    /**
     * Measure the compressed size of @p line against the current
     * dictionary without committing any state change. When @p stats is
     * given, the symbol mix the line *would* contribute is recorded
     * there — by construction the same counts append() would commit
     * (pinned by the trial/commit symmetry test).
     *
     * @return Size in bits the line would occupy if appended.
     */
    std::uint32_t measure(const CacheLine &line,
                          LbeStats *stats = nullptr) const;

    /**
     * measure() over a precomputed plan (multi-log batched trials).
     * When the score passes @p limit, encoding may stop early: the
     * result is then some value above @p limit (and @p stats, if given,
     * partial). Whenever the line fits in @p limit bits, the result is
     * the exact size.
     */
    std::uint32_t measure(const LbeLinePlan &plan,
                          LbeStats *stats = nullptr,
                          std::uint32_t limit = kNoLimit) const;

    /**
     * Compress @p line, commit dictionary updates, and optionally emit
     * the bit stream (used by the decoder round-trip tests).
     *
     * @return Size in bits of the appended line.
     */
    std::uint32_t append(const CacheLine &line, BitWriter *out = nullptr);

    /** append() over a precomputed plan (reuses the trial's plan). */
    std::uint32_t append(const LbeLinePlan &plan, BitWriter *out = nullptr);

    /**
     * append() over a plan that adds to @p ones the 1 bits its emitted
     * stream would hold (the cells the append programs), without
     * emitting the stream.
     */
    std::uint32_t appendCountingOnes(const LbeLinePlan &plan,
                                     std::uint64_t &ones);

    /** Forget all dictionary state (log flush). */
    void reset();

    const LbeConfig &config() const { return cfg_; }
    const LbeStats &stats() const { return stats_; }
    void clearStats() { stats_ = LbeStats{}; }

    /** Number of committed 32-bit dictionary entries (excluding zero). */
    unsigned dictSize() const { return static_cast<unsigned>(values32_.size()); }

    /** Append dictionary contents and symbol stats. */
    void save(snap::Serializer &s) const;

    /** Restore a dictionary written by save(); the configuration must
     *  match (table capacities are structural). */
    void restore(snap::Deserializer &d);

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    /**
     * Dictionary updates buffered during one line so measure() can run
     * without mutating and append() can commit atomically. One scratch
     * instance lives in the encoder and is reused (cleared, capacity
     * kept) across calls — trial compression allocates nothing.
     */
    struct Overlay
    {
        std::vector<std::uint32_t> words;   // pending 32-bit insertions
        std::vector<std::uint64_t> nodes64; // pending packed tree nodes
        std::vector<std::uint64_t> nodes128;
        std::vector<std::uint64_t> nodes256;

        void
        clear()
        {
            words.clear();
            nodes64.clear();
            nodes128.clear();
            nodes256.clear();
        }
    };

    /**
     * One committed tree-node table, packed left | right << 32 for flat
     * scanning (the snapshot format still writes the u32 halves), with
     * a presence filter: one bit per hashed key, set as each key is
     * committed and rebuilt on restore(). A clear bit proves a key
     * absent, so the lookups that miss (most of them) skip the scan; a
     * set bit falls through to the same first-match scan. An extra set
     * bit costs only a scan; a missing one would change encodings.
     */
    struct NodeTable
    {
        std::vector<std::uint64_t> keys;
        std::uint64_t filter[4] = {}; // morc-analyze: allow(snapshot-completeness) rebuilt on restore()

        static unsigned
        filterBit(std::uint64_t key)
        {
            return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >>
                                         56);
        }

        bool
        mayHold(std::uint64_t key) const
        {
            const unsigned b = filterBit(key);
            return (filter[b >> 6] >> (b & 63)) & 1;
        }

        void
        mark(std::uint64_t key)
        {
            const unsigned b = filterBit(key);
            filter[b >> 6] |= 1ull << (b & 63);
        }

        void
        push(std::uint64_t key)
        {
            keys.push_back(key);
            mark(key);
        }

        void clear();
        /** Recompute the filter from keys (after a restore). */
        void refilter();
    };

    /**
     * Core encode over a plan. The trial battery is the simulator's
     * hottest loop, so the output and stats paths are compile-time
     * template clones. @p out receives every code and operand through
     * put(value, nbits): a BitWriter emits the stream (the decoder
     * round-trip tests), OnesCounter counts its 1 bits (wear), NoOutput
     * strips all output (measure). kStats = false strips symbol
     * accounting (trial scoring), kTrial = true marks an encode that is
     * never committed (measure): it skips the tree-node allocation
     * after the last chunk and returns once its score passes @p limit.
     * @p stats must be non-null exactly when kStats is set.
     */
    template <bool kStats, bool kTrial, typename Out>
    std::uint32_t encodeLine(const LbeLinePlan &plan, Overlay &ov,
                             Out &out, LbeStats *stats,
                             std::uint32_t limit) const;

    /** Find node (left, right) in @p committed, then in the line-local
     *  @p pending overlay; kNoIdx when absent or a child has no index. */
    static std::uint32_t lookupNode(std::uint32_t left, std::uint32_t right,
                                    const NodeTable &committed,
                                    const std::vector<std::uint64_t> &pending);

    /** Allocate node (left, right) in @p pending while the table holds
     *  fewer than @p cap nodes; kNoIdx when full or a child is absent. */
    static std::uint32_t insertNode(std::uint32_t left, std::uint32_t right,
                                    const NodeTable &committed,
                                    std::vector<std::uint64_t> &pending,
                                    unsigned cap);

    void commit(const Overlay &ov);

    LbeConfig cfg_;
    LbeStats stats_;

    /** Committed 32-bit dictionary in insertion order (index - 1). */
    std::vector<std::uint32_t> values32_;

    /**
     * Bucketized open-addressing index over values32_ for O(1)
     * committed-dictionary matches (simd::hashFind8 layout: groups of
     * 8 slots probed with one vector compare). hashSlots_ holds the
     * values (0 = empty; dictionary values are nonzero by
     * construction), hashPos_ the matching 1-based dictionary index.
     * Rebuilt deterministically from the committed sequence on
     * restore(), so it is pure acceleration — encodings never depend
     * on its layout.
     */
    std::vector<std::uint32_t> hashSlots_;
    std::vector<std::uint32_t> hashPos_; // morc-analyze: allow(snapshot-completeness) rebuilt on restore()
    unsigned hashGroupsLog2_ = 0; // morc-analyze: allow(snapshot-completeness) sized from cfg_ at construction

    void hashInsert(std::uint32_t v, std::uint32_t pos);

    /** Committed tree nodes at 64/128/256-bit granularity. Only their
     *  keys are saved; restore() rebuilds the filters from them. */
    NodeTable nodes64_;
    NodeTable nodes128_;
    NodeTable nodes256_;

    /** Reused trial/append scratch (see Overlay). */
    mutable Overlay scratch_; // morc-analyze: allow(snapshot-completeness) transient trial scratch
};

/**
 * Streaming LBE decoder, mirroring the encoder's dictionary evolution.
 * Exists to prove the format is decodable; the cache model itself only
 * needs compressed sizes.
 *
 * A stream the encoder did not write may point past a dictionary
 * table. The decoder fails softly: the first such pointer latches
 * !ok(), and that line and every later one decode as zeros without
 * reading the stream, until reset().
 */
class LbeDecoder
{
  public:
    explicit LbeDecoder(const LbeConfig &cfg = LbeConfig{});

    /** Decode the next line from @p in. */
    CacheLine decodeLine(BitReader &in);

    /** Forget the dictionary and any failure. */
    void reset();

    /** False once a pointer read past its table. */
    bool ok() const { return ok_; }

  private:
    std::uint32_t value32(std::uint32_t idx) const;
    void gather(unsigned level, std::uint32_t idx, std::uint32_t *out) const;

    LbeConfig cfg_;
    std::vector<std::uint32_t> values32_;
    std::unordered_map<std::uint32_t, std::uint32_t> map32_;
    /** Node children packed as left<<32|right; index 0 is the zero entry. */
    std::vector<std::uint64_t> nodes_[3]; // 64, 128, 256-bit levels
    std::unordered_map<std::uint64_t, std::uint32_t> nodeMap_[3];
    bool ok_ = true;
};

} // namespace comp
} // namespace morc

#endif // MORC_COMPRESS_LBE_HH
