/**
 * @file
 * Workload specification and per-thread trace generation.
 *
 * Each benchmark is an (access profile, data profile) pair. A ThreadTrace
 * turns a benchmark into a deterministic stream of memory references with
 * instruction gaps, mimicking the pinball-region traces the paper feeds
 * PriME.
 */

#ifndef MORC_TRACE_WORKLOAD_HH
#define MORC_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snapshot/snapshot.hh"
#include "trace/value_model.hh"
#include "util/rng.hh"
#include "util/types.hh"
#include "util/zipf.hh"

namespace morc {
namespace trace {

/** Memory-access behaviour of one benchmark. */
struct AccessProfile
{
    /** Memory references per instruction. */
    double memFrac = 0.30;

    /** Stores as a fraction of memory references. */
    double storeFrac = 0.30;

    /** Total touched footprint (streaming + cold random). */
    std::uint64_t wsBytes = 8ull << 20;

    /** Hot reuse region (Zipf-popular lines). */
    std::uint64_t hotBytes = 256ull << 10;

    /** Skew of page popularity within the hot region. Reuse is
     *  modelled at page granularity: real fill streams arrive in
     *  page-clustered bursts, which both keeps tag deltas small (MORC's
     *  tag compression relies on it) and keeps a log's value regions
     *  coherent. */
    double hotTheta = 0.85;

    /** Page size of the hot-reuse clustering. */
    unsigned hotPageBytes = 4096;

    /** Fraction of references to the hot region. */
    double hotFrac = 0.55;

    /** Fraction of references that stream sequentially over the
     *  working set. */
    double seqFrac = 0.30;

    /** Bytes advanced per streaming reference. */
    unsigned seqStride = 8;

    /** Mean accesses spent within a page before moving on (spatial
     *  burstiness). Real reference streams touch several lines of a
     *  page in a burst; this is what makes consecutive LLC fills
     *  address-adjacent (small tag deltas) and value-coherent. */
    double burstMean = 18.0;

    /** Store-probability multipliers per reference class (relative to
     *  storeFrac). Pointer-chasing codes write their hot structures;
     *  sweep-writing codes (gcc's IR passes, stencil kernels) write the
     *  stream itself, which keeps their write-back streams
     *  address-chained. */
    double storeSeqBias = 0.5;
    double storeHotBias = 1.2;
    double storeColdBias = 0.3;
};

/** One named benchmark: how it accesses memory and what its data is. */
struct BenchmarkSpec
{
    std::string name;
    AccessProfile access;
    DataProfile data;
};

/** A decoded memory reference with its preceding instruction gap. */
struct MemRef
{
    Addr addr;
    bool write;
    /** Non-memory instructions executed before this reference. */
    std::uint32_t gap;
};

/**
 * Deterministic reference stream for one benchmark instance on one core.
 *
 * Address space: the thread id is folded into bits [40..47] so programs
 * never share physical lines, matching the paper's multi-programmed
 * (not multi-threaded) workloads.
 */
class ThreadTrace
{
  public:
    /**
     * @param spec      Benchmark to synthesize.
     * @param thread_id Core slot; isolates the address space.
     * @param seed_salt Extra seed salt (used to de-synchronize phases in
     *                  Sx replicated workloads).
     */
    ThreadTrace(const BenchmarkSpec &spec, unsigned thread_id,
                std::uint64_t seed_salt = 0);

    /** Produce the next memory reference. */
    MemRef next();

    /** Value model shared with the memory/functional layer. */
    const ValueModel &values() const { return *values_; }

    /** Base of this thread's address space. */
    Addr addrBase() const { return base_; }

    const BenchmarkSpec &spec() const { return spec_; }
    unsigned threadId() const { return threadId_; }

    /** Generator cursor: stream position, burst walks, RNG state.
     *  The spec, pools and value model are configuration — a restored
     *  trace must be built from the same BenchmarkSpec. */
    void save(snap::Serializer &s) const { walk(*this, s); }

    /** Restore the cursor written by save(). */
    void restore(snap::Deserializer &d) { walk(*this, d); }

  private:
    BenchmarkSpec spec_; // morc-analyze: allow(snapshot-completeness) construction-time config; restore() re-binds
    unsigned threadId_;
    Addr base_; // morc-analyze: allow(snapshot-completeness) construction-time config; restore() re-binds
    std::shared_ptr<ValueModel> values_; // morc-analyze: allow(snapshot-completeness) construction-time config; restore() re-binds
    ZipfSampler hotPages_; // morc-analyze: allow(snapshot-completeness) deterministic from spec_
    std::uint64_t wsLines_; // morc-analyze: allow(snapshot-completeness) derived from spec_
    std::uint64_t seqPos_ = 0;
    /** Independent page-burst state per reference class; interleaved
     *  hot and cold streams each keep their own walk (two live
     *  pointers), as real programs do. */
    struct Burst
    {
        std::uint64_t page = 0;
        std::uint64_t pos = 0;
        unsigned left = 0;
    };
    Burst hotBurst_;
    Burst coldBurst_;
    Rng rng_;

    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.expect(self.threadId_, "trace thread id mismatch");
        io.u64(self.seqPos_);
        for (auto *b : {&self.hotBurst_, &self.coldBurst_}) {
            io.u64(b->page);
            io.u64(b->pos);
            io.u32(b->left);
        }
        Rng::walk(self.rng_, io);
    }
};

// ----------------------------------------------------------------------
// Benchmark registry (Section 4 / Table 6 of the paper)
// ----------------------------------------------------------------------

/** The 28 base SPEC CPU2006 benchmarks the paper plots. */
const std::vector<BenchmarkSpec> &spec2006();

/** Find a base benchmark by name; aborts on unknown names. */
const BenchmarkSpec &findBenchmark(const std::string &name);

/**
 * Derive an additional-reference-input variant ("gcc_3") by
 * deterministically perturbing the base profile.
 */
BenchmarkSpec makeVariant(const BenchmarkSpec &base, unsigned index);

/** Resolve a (possibly variant) workload name like "bzip2_5". */
BenchmarkSpec resolveWorkload(const std::string &name);

/** The 54 single-program workloads of Figure 6, in plot order. */
std::vector<BenchmarkSpec> figure6Workloads();

/** A 16-program multi-program workload from Table 6. */
struct MultiProgramSpec
{
    std::string name;
    std::vector<std::string> programs; // 16 workload names
};

/** The M0-M3 and S0-S7 mixes of Table 6. */
const std::vector<MultiProgramSpec> &table6Workloads();

} // namespace trace
} // namespace morc

#endif // MORC_TRACE_WORKLOAD_HH
