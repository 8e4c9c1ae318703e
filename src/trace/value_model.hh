/**
 * @file
 * Deterministic cache-line value synthesis.
 *
 * The paper's compression results are driven by the *value structure* of
 * SPEC CPU2006 memory images: dense zeros, small integers, duplicated
 * words across lines (pointer/index-heavy codes), duplicated 128/256-bit
 * chunks (struct/record-heavy and stencil FP codes), and high-entropy FP
 * mantissas. Since the original traces are not redistributable, each
 * benchmark here carries a DataProfile describing that structure, and
 * ValueModel synthesizes line contents as a pure function of
 * (profile seed, line address, version). Stores bump the version.
 *
 * Purity matters: a line's contents never change behind the cache's back,
 * replicated workloads (the paper's Sx mixes) share value pools across
 * cores, and every run is exactly reproducible.
 */

#ifndef MORC_TRACE_VALUE_MODEL_HH
#define MORC_TRACE_VALUE_MODEL_HH

#include <cstdint>
#include <unordered_map>

#include "snapshot/snapshot.hh"
#include "util/rng.hh"
#include "util/types.hh"
#include "util/zipf.hh"

namespace morc {
namespace trace {

/** Value-structure parameters of one benchmark's data. */
struct DataProfile
{
    /** Seed of the value universe. Shared by replicas of the same
     *  benchmark so inter-core commonality emerges (Sx workloads). */
    std::uint64_t seed = 1;

    /** Probability a line is entirely zero. */
    double zeroLineFrac = 0.05;

    /** Probability an individual word is zero (within non-zero lines). */
    double zeroWordFrac = 0.2;

    /** Probability a 128-bit half-chunk is entirely zero. Real zeros
     *  cluster (padding, cleared structs, sparse rows); clustered zeros
     *  are where LBE's z128/z256 symbols pay off over per-word codes. */
    double zeroHalfFrac = 0.0;

    /** Probability a 256-bit chunk is drawn whole from the chunk pool
     *  (drives LBE m256 matches). */
    double chunk256Frac = 0.0;
    std::uint32_t chunk256Pool = 64;

    /** Probability a 128-bit half-chunk is drawn from the 128-bit pool. */
    double chunk128Frac = 0.0;
    std::uint32_t chunk128Pool = 128;

    /**
     * Probability a word is drawn from a value pool (inter-line
     * duplication). Pools are *region-scoped*: lines in the same
     * regionBytes window share a small Zipf-distributed slice of
     * values, modelling the address-correlated value locality of real
     * heaps/arrays. This is the property MORC exploits: lines filled
     * close in time come from few regions, so a log's dictionary stays
     * small and hot, while a single global dictionary (SC2) must cover
     * every region's slice at once.
     */
    double poolWordFrac = 0.3;

    /** Distinct values per region slice (kept near LBE's dictionary). */
    std::uint32_t regionPoolSize = 96;

    /** Region granularity for value locality. */
    std::uint32_t regionBytes = 16384;

    /** Zipf skew within a region slice. */
    double poolTheta = 1.1;

    /** Share of pool draws that come from the small program-global pool
     *  (common constants, vtable pointers, canonical values). The
     *  frozen 512 B LBE dictionary — and real cache contents — imply a
     *  compact working vocabulary; most duplication is program-wide. */
    double globalPoolFrac = 0.25;
    std::uint32_t globalPoolSize = 48;

    /** Probability a word is a small integer (exercises u8/u16). */
    double smallWordFrac = 0.1;

    /** Probability a word is FP-styled: common exponent byte, random
     *  mantissa (poor intra-line, mediocre inter-line value locality). */
    double fpWordFrac = 0.0;

    /** How much a store perturbs a line: fraction of words rewritten. */
    double storeChurn = 0.25;
};

/**
 * Synthesizes line data for one benchmark instance.
 *
 * All sampling is hash-driven (no generator state), so data is a pure
 * function of (seed, line number, version, position).
 */
class ValueModel
{
  public:
    explicit ValueModel(const DataProfile &profile);

    /** Contents of line @p line_number at mutation @p version. */
    CacheLine line(std::uint64_t line_number, std::uint32_t version) const;

    const DataProfile &profile() const { return profile_; }

  private:
    /** Cuts: the unitThreshold() of every probability a draw is
     *  tested against. Cumulative bands are summed in the order the
     *  draws test them, so each integer test gives the answer of the
     *  double test `(h >> 11) * 2^-53 < band`. */
    struct Cuts
    {
        explicit Cuts(const DataProfile &p);

        std::uint64_t zeroLine, chunk256, zeroHalf, chunk128;
        /** freshWord()'s bands: zero, then pool, small and FP words. */
        std::uint64_t zeroWord, poolWord, smallWord, fpWord;
        std::uint64_t globalPool;
        /** chunkWords()'s small-integer band, above its zero band. */
        std::uint64_t chunkSmall;
        std::uint64_t storeChurn;
    };

    /** A pool word's value: pure function of (region, index). */
    std::uint32_t poolWord(std::uint64_t region, std::uint64_t index) const;

    /** Fill @p n words of a pooled chunk of @p region at @p out. */
    void chunkWords(std::uint64_t region, std::uint64_t chunk_id,
                    unsigned n, std::uint64_t salt,
                    std::uint32_t *out) const;

    /** One freshly synthesized (non-chunk) word for @p region. */
    std::uint32_t freshWord(std::uint64_t h, std::uint64_t region) const;

    DataProfile profile_;
    Cuts cut_;
    ZipfSampler regionPool_;
    ZipfSampler globalPool_;
    ZipfSampler chunk256Pool_;
    ZipfSampler chunk128Pool_;
};

// ------------------------------------------------------------------
// Key-value payload synthesis (the src/kv/ serving subsystem)
// ------------------------------------------------------------------

/**
 * Redundancy class of one key's value. Classes are assigned per key
 * (hash of the key) so a tenant's corpus is a stable mix, and each
 * class earns its compression ratio from a different structure:
 *
 *   JsonLike      small-document payloads: a compact token vocabulary
 *                 shared across the whole corpus (field names, enum
 *                 strings), small integers, and zero padding. High
 *                 inter-line duplication — dictionary schemes shine.
 *   CounterDense  counters/flags: almost all zeros plus a few small
 *                 integers derived from the value's version. Extremely
 *                 compressible; every SET perturbs it.
 *   Blob          media/ciphertext: high-entropy words. Essentially
 *                 incompressible; keeps ratios honest.
 */
enum class ValueClass : std::uint8_t
{
    JsonLike = 0,
    CounterDense = 1,
    Blob = 2,
};

const char *valueClassName(ValueClass c);

/** Knobs of one tenant's value corpus. */
struct KvProfile
{
    /** Seed of the value universe (per tenant). */
    std::uint64_t seed = 1;

    /** Class mix: P(JsonLike), P(CounterDense); Blob takes the rest. */
    double jsonFrac = 0.5;
    double counterFrac = 0.3;

    /** Value sizes in cache lines, per class. */
    std::uint32_t jsonLines = 4;
    std::uint32_t counterLines = 1;
    std::uint32_t blobLines = 8;

    /** JSON token vocabulary (shared across keys) and its skew. */
    std::uint32_t tokenPoolSize = 96;
    double tokenTheta = 1.05;

    /** Fraction of a JSON value's words rewritten by a SET. */
    double setChurn = 0.3;
};

/**
 * Synthesizes value payloads for one tenant's key space.
 *
 * Line contents are a pure function of (profile seed, key, line index,
 * version) — the same construction as ValueModel — but unlike the SPEC
 * model this one carries mutable state: the per-key version map bumped
 * by SETs. That state (and the redundancy knobs that shape the data it
 * addresses) is snapshot-covered so a mid-run KV simulation restores
 * to byte-identical replay.
 */
class KvValueModel
{
  public:
    explicit KvValueModel(const KvProfile &profile);

    /** Redundancy class of @p key (stable per key). */
    ValueClass classOf(std::uint64_t key) const;

    /** Value size of @p key in whole cache lines (>= 1). */
    std::uint32_t valueLines(std::uint64_t key) const;

    /** Largest valueLines() over all classes (address stride). */
    std::uint32_t maxValueLines() const;

    /** Current version of @p key (0 until the first SET). */
    std::uint32_t version(std::uint64_t key) const;

    /** Record a SET: bump and return @p key's version. */
    std::uint32_t bump(std::uint64_t key);

    /** Contents of line @p line_idx of @p key at @p version. */
    CacheLine line(std::uint64_t key, std::uint32_t line_idx,
                   std::uint32_t version) const;

    const KvProfile &profile() const { return profile_; }

    /** Keys ever SET (size of the version map). */
    std::uint64_t dirtyKeys() const { return versions_.size(); }

    /** Append redundancy knobs + per-key version state. */
    void save(snap::Serializer &s) const;

    /** Restore knobs and version state written by save(). */
    void restore(snap::Deserializer &d);

    /** Largest tokenPoolSize and per-class line count a restore
     *  adopts: a hostile snapshot must not size the token table or
     *  every request's line loop. */
    static constexpr std::uint32_t kMaxTokenPoolSize = 65536;
    static constexpr std::uint32_t kMaxValueLines = 64;

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    /** Recompute the cuts below from profile_. */
    void deriveCuts();

    /** Token @p index of the corpus-wide JSON vocabulary. */
    std::uint32_t tokenWord(std::uint64_t index) const;

    std::uint32_t jsonWord(std::uint64_t h) const;

    KvProfile profile_;

    /** Derived from profile_ (rebuilt by restore()).
     *  morc-analyze: allow(snapshot-completeness) derived from the
     *  saved profile knobs, reconstructed on restore */
    ZipfSampler tokenPool_;

    /** Cuts (unitThreshold()s) of classOf()'s bands and of setChurn.
     *  morc-analyze: allow(snapshot-completeness) derived from the
     *  saved profile knobs, reconstructed on restore */
    std::uint64_t jsonCut_, counterCut_, setChurnCut_;

    /** Per-key SET count; only mutated keys appear. */
    std::unordered_map<std::uint64_t, std::uint32_t> versions_;
};

} // namespace trace
} // namespace morc

#endif // MORC_TRACE_VALUE_MODEL_HH
