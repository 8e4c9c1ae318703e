/**
 * @file
 * Common interface for every last-level cache model (the uncompressed
 * baseline, Adaptive, Decoupled, SC2, the Figure 2 oracles, and MORC).
 *
 * The simulator drives an Llc with reads (probe, no allocation) and
 * inserts (fills from memory and write-backs from L1). Models return
 * per-access timing/energy annotations and surface dirty victims so the
 * memory layer can account bandwidth and apply functional writes.
 */

#ifndef MORC_CACHE_LLC_HH
#define MORC_CACHE_LLC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/auditor.hh"
#include "energy/lifetime.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/tracer.hh"
#include "util/bitstream.hh"
#include "util/types.hh"

namespace morc {
namespace cache {

/** Outcome of a read probe. */
struct ReadResult
{
    bool hit = false;

    /** Line contents on a hit. */
    CacheLine data{};

    /** Extra access cycles beyond the base LLC latency (decompression;
     *  position-dependent for MORC, flat +4 for prior schemes). */
    std::uint32_t extraLatency = 0;

    /** Decompressor output bytes produced to serve this access. */
    std::uint64_t bytesDecompressed = 0;

    /** Number of cache lines the decompressor had to reconstruct. */
    std::uint32_t linesDecompressed = 0;
};

/** A dirty line evicted toward memory. */
struct Writeback
{
    Addr addr;
    CacheLine data;
};

/** Outcome of an insert (fill or write-back allocation). */
struct FillResult
{
    /** Dirty victims that must be written to memory. */
    std::vector<Writeback> writebacks;

    /** Lines pushed through a compressor by this insert. */
    std::uint32_t linesCompressed = 0;

    /** Lines decompressed as a side effect (e.g. a log flush). */
    std::uint32_t linesDecompressed = 0;
    std::uint64_t bytesDecompressed = 0;
};

/**
 * Every LlcStats counter, in snapshot order, with its telemetry probe
 * name (nullptr: no probe). Adding a counter is one line here: the
 * members, the snapshot walk, +=, - and the base Llc::registerProbes
 * are all generated from this table.
 *
 * Scheme counters are rows too, so warm-up clears them and a banked
 * director sums them; each reads zero outside its scheme, which
 * publishes it. MORC: logFlushes (whole-log evictions), logReuses
 * (all-invalid logs reused instead), lmtConflictEvicts, and
 * lmtAliasedMisses (a valid LMT entry, but the tag missed). SC2:
 * retrainings. Touché: sigFalsePositives and sigEvictions (signature
 * collisions on read and on insert), recompactions (a rewritten line
 * grew). The cell counters are NVM wear charged from the emitted
 * bitstreams (energy/lifetime.hh): bits programmed into the data
 * array, and cells flipped against the frame's prior image.
 */
#define MORC_LLC_STATS(X)                                              \
    X(reads, "reads")                                                  \
    X(readHits, "read_hits")                                           \
    X(inserts, "inserts")                                              \
    X(victimWritebacks, "victim_writebacks")                           \
    X(linesCompressed, nullptr)                                        \
    X(linesDecompressed, nullptr)                                      \
    X(bytesDecompressed, "bytes_decompressed")                         \
    X(logFlushes, nullptr)                                             \
    X(logReuses, nullptr)                                              \
    X(lmtConflictEvicts, nullptr)                                      \
    X(lmtAliasedMisses, nullptr)                                       \
    X(cellBitsWritten, "cell_bits_written")                            \
    X(cellBitFlips, "cell_bit_flips")                                  \
    X(retrainings, nullptr)                                            \
    X(sigFalsePositives, nullptr)                                      \
    X(sigEvictions, nullptr)                                           \
    X(recompactions, nullptr)

/** Aggregate counters every model maintains. */
struct LlcStats
{
#define MORC_LLC_MEMBER(field, probe) std::uint64_t field = 0;
    MORC_LLC_STATS(MORC_LLC_MEMBER)
#undef MORC_LLC_MEMBER

    bool operator==(const LlcStats &) const = default;

    void
    clear()
    {
        *this = LlcStats{};
    }

    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
#define MORC_LLC_WALK(field, probe) io.u64(self.field);
        MORC_LLC_STATS(MORC_LLC_WALK)
#undef MORC_LLC_WALK
    }

    void save(snap::Serializer &s) const { walk(*this, s); }
    void restore(snap::Deserializer &d) { walk(*this, d); }

    LlcStats &
    operator+=(const LlcStats &o)
    {
#define MORC_LLC_ADD(field, probe) field += o.field;
        MORC_LLC_STATS(MORC_LLC_ADD)
#undef MORC_LLC_ADD
        return *this;
    }
};

/** Counter-wise difference (for before/after deltas; @p a >= @p b). */
inline LlcStats
operator-(const LlcStats &a, const LlcStats &b)
{
    LlcStats d;
#define MORC_LLC_SUB(field, probe) d.field = a.field - b.field;
    MORC_LLC_STATS(MORC_LLC_SUB)
#undef MORC_LLC_SUB
    return d;
}

/**
 * Abstract last-level cache.
 *
 * Every model is Auditable: audit() walks the scheme's full internal
 * state and reports every violated structural invariant (see
 * check/auditor.hh). The morc_check differential fuzzer runs it
 * periodically while replaying adversarial access streams.
 */
class Llc : public check::Auditable, public snap::Snapshottable
{
  public:
    ~Llc() override = default;

    /** Probe for @p addr; never allocates. */
    virtual ReadResult read(Addr addr) = 0;

    /**
     * Insert a line: a fill from memory (@p dirty false) or a write-back
     * from a private cache (@p dirty true).
     */
    virtual FillResult insert(Addr addr, const CacheLine &data,
                              bool dirty) = 0;

    /** Valid resident lines (compressed schemes can exceed baseline). */
    virtual std::uint64_t validLines() const = 0;

    /** Uncompressed data capacity in bytes. */
    virtual std::uint64_t capacityBytes() const = 0;

    /** Effective-capacity ratio: valid lines x 64B over capacity. */
    double
    compressionRatio() const
    {
        return static_cast<double>(validLines() * kLineSize) /
               static_cast<double>(capacityBytes());
    }

    virtual std::string name() const = 0;

    LlcStats &stats() { return stats_; }
    const LlcStats &stats() const { return stats_; }

    /**
     * Publish this model's telemetry probes into @p reg, each named
     * "<prefix>.<probe>". The base implementation registers what every
     * model maintains — the valid-lines gauge and the LlcStats
     * counters; schemes override to add their own state (and should
     * call the base first so the common catalog stays uniform).
     *
     * Probes capture `this`: the registry must not outlive the cache.
     */
    virtual void
    registerProbes(telemetry::Registry &reg, const std::string &prefix)
    {
        reg.gauge(prefix + ".valid_lines",
                  [this](Cycles) { return double(validLines()); });
#define MORC_LLC_PROBE(field, probe)                                   \
    if (const char *name = (probe))                                    \
        reg.counter(prefix + "." + name,                               \
                    [this](Cycles) { return double(stats_.field); });
        MORC_LLC_STATS(MORC_LLC_PROBE)
#undef MORC_LLC_PROBE
    }

    /**
     * The run's wear histogram, merged across banks for composite
     * models (the default returns this cache's own tracker by value).
     * Its totals must equal the LlcStats cell counters — morc_check
     * cross-checks the two independently carried views.
     */
    virtual energy::WearTracker
    wearSnapshot() const
    {
        return wear_;
    }

    /** Zero wear counters alongside an external stats().clear() (e.g.
     *  after warm-up), keeping the frame geometry. */
    virtual void
    clearWear()
    {
        wear_.clearCounts();
    }

    /**
     * Attach an event tracer; the model records its structured events
     * (see telemetry::EventKind) onto track @p track. Pass nullptr to
     * detach. The default stores the lane for models that emit events;
     * composite models (BankedLlc) fan the tracer out instead.
     */
    virtual void
    attachTracer(telemetry::Tracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        traceTrack_ = track;
    }

  protected:
    /** Charge one physical data-array write to frame (@p set, @p way):
     *  both the aggregate counters and the per-frame histogram. */
    void
    chargeWear(std::uint64_t set, std::uint64_t way,
               std::uint64_t bits_written, std::uint64_t bit_flips)
    {
        stats_.cellBitsWritten += bits_written;
        stats_.cellBitFlips += bit_flips;
        wear_.recordWrite(set, way, bits_written, bit_flips);
    }

    /** Charge re-programming frame (@p set, @p way) with @p image: the
     *  cells flipped relative to @p old when the frame held the line's
     *  previous image (@p had_old), else a program of erased cells. */
    void
    chargeImageWear(std::uint64_t set, std::uint64_t way, bool had_old,
                    const BitWriter &old, const BitWriter &image)
    {
        chargeWear(set, way, image.sizeBits(),
                   had_old ? energy::flipBits(old.words(), old.sizeBits(),
                                              image.words(),
                                              image.sizeBits())
                           : energy::popcountBits(image.words(),
                                                  image.sizeBits()));
    }

    /** Charge @p lines decompressed lines, @p bytes of decompressor
     *  output, to one access's @p result (a ReadResult or FillResult)
     *  and to the aggregate counters. */
    template <typename Result>
    void
    chargeDecompression(Result &result, std::uint64_t lines,
                        std::uint64_t bytes)
    {
        result.linesDecompressed += static_cast<std::uint32_t>(lines);
        result.bytesDecompressed += bytes;
        stats_.linesDecompressed += lines;
        stats_.bytesDecompressed += bytes;
    }

    LlcStats stats_;

    /** Per-frame write/flip histogram (see energy/lifetime.hh).
     *  Schemes configure the geometry in their constructor and must
     *  save/restore it with the rest of their state. */
    energy::WearTracker wear_;

    /** Event sink (null = tracing off; emission must be zero-cost). */
    telemetry::Tracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
};

} // namespace cache
} // namespace morc

#endif // MORC_CACHE_LLC_HH
