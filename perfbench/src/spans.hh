/**
 * @file
 * Host-time spans around calls into the simulator's layers.
 *
 * A span measures one call with two steady_clock reads. Every call is
 * aggregated in memory per (layer, parent) pair; full spans (name,
 * start, end, parent, op id) are kept only for a deterministic sample
 * of ops and written out when the run ends. The cost of an empty span
 * is measured in situ, by empty probe spans interleaved with the ops,
 * and subtracted per call, so a layer's self time excludes both its
 * children and the clock reads themselves.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Layer boundaries the traced run wraps, named after the modules. */
enum Layer : unsigned
{
    TraceNext,       // trace::ThreadTrace::next
    TraceValues,     // trace::ValueModel / KvValueModel
    SimL1,           // sim::L1Cache lookup/update/fill
    SimMem,          // sim::MemoryChannel read/write
    CacheRead,       // cache::Llc::read
    CacheFill,       // cache::Llc::insert of a clean fill
    CacheWriteback,  // cache::Llc::insert of an L1 dirty victim
    CacheSet,        // cache::Llc::insert of a KV SET
    MeshNoc,         // mesh::Noc::transfer
    KvGenerator,     // kv::Generator::next
    KvTierFetch,     // kv::TieredStore::fetch
    KvTierWriteback, // kv::TieredStore::writeback
    kNumLayers,
    /** Harness work inside the traced window (value checks); timed so
     *  it can be taken out of the tracing overhead, never reported. */
    Harness = kNumLayers,
    /** Empty spans interleaved with the ops: the span cost in situ. */
    Probe,
    kNumSlots,
};

/** Report names, indexed by Layer. */
inline constexpr std::array<const char *, kNumLayers> kLayerNames = {
    "trace.next",      "trace.values",      "sim.l1",
    "sim.mem",         "cache.read",        "cache.fill",
    "cache.writeback", "cache.set",         "mesh.noc",
    "kv.generator",    "kv.tier.fetch",     "kv.tier.writeback",
};

class SpanTracer
{
  public:
    /** Aggregate of every call of one layer under one parent. */
    struct Agg
    {
        std::uint64_t calls = 0;
        std::int64_t totalNs = 0;
        std::int64_t childNs = 0;
        std::uint64_t children = 0;
    };

    /** One recorded span of a sampled op. */
    struct Record
    {
        unsigned slot;   // Layer, or kNumSlots for the op itself
        std::int64_t parent; // index into records(), -1 for an op
        std::uint64_t op;
        std::int64_t start;
        std::int64_t end;
    };

    /** Ops whose id is a multiple of this keep their full spans. */
    static constexpr std::uint64_t kSampleEvery = 4096;

    /** One op in this many opens an empty probe span before it. */
    static constexpr std::uint64_t kProbeEvery = 16;

    /** Cost of one empty span: the duration it records (inner) and the
     *  time it adds to the caller (outer). */
    struct Cost
    {
        double innerNs = 0.0;
        double outerNs = 0.0;
    };

    /** Median-of-batches cost of an empty span in a tight loop. */
    static Cost calibrate();

    /** The inner cost measured in situ by the probe spans (the loop's
     *  when no probe ran), with the loop's outer cost. */
    Cost cost(const Cost &loop) const;

    /** Spans are recorded only while enabled (warm-up runs with the
     *  tracer off, through the same code). */
    void setEnabled(bool on) { enabled_ = on; }

    /** Start op @p id; ops are the unit every per-op metric divides
     *  by. */
    void
    beginOp(std::uint64_t id)
    {
        if (!enabled_)
            return;
        if (ops_++ % kProbeEvery == 0)
            Scope probe(*this, Probe);
        sampled_ = id % kSampleEvery == 0;
        if (sampled_) {
            opRecord_ = static_cast<std::int64_t>(records_.size());
            records_.push_back({kNumSlots, -1, id, nowNs(), 0});
        }
        opId_ = id;
    }

    void
    endOp()
    {
        if (enabled_ && sampled_)
            records_[static_cast<std::size_t>(opRecord_)].end = nowNs();
        sampled_ = false;
    }

    /** Run @p fn inside a span of @p slot and return its result. */
    template <typename Fn>
    decltype(auto)
    timed(unsigned slot, Fn &&fn)
    {
        if (!enabled_)
            return fn();
        Scope scope(*this, slot);
        return fn();
    }

    /** Every call of @p slot under @p parent (kNumSlots = op root). */
    const Agg &
    agg(unsigned parent, unsigned slot) const
    {
        return agg_[parent][slot];
    }

    /** Self time of @p slot summed over parents, span cost removed. */
    double selfNs(unsigned slot, const Cost &cost) const;

    /** Calls of @p slot summed over parents. */
    std::uint64_t calls(unsigned slot) const;

    /** Write the sampled spans as JSON; false on an I/O error. */
    bool writeSamples(const std::string &path, const std::string &header,
                      const Cost &cost) const;

  private:
    struct Frame
    {
        unsigned slot;
        std::int64_t start;
        std::int64_t childNs;
        std::uint64_t children;
        std::int64_t record;
    };

    class Scope
    {
      public:
        Scope(SpanTracer &t, unsigned slot) : t_(t) { t_.push(slot); }
        ~Scope() { t_.pop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanTracer &t_;
    };

    void
    push(unsigned slot)
    {
        Frame &f = stack_[depth_++];
        f.slot = slot;
        f.childNs = 0;
        f.children = 0;
        f.record = -1;
        if (sampled_) {
            const std::int64_t parent =
                depth_ > 1 ? stack_[depth_ - 2].record : opRecord_;
            f.record = static_cast<std::int64_t>(records_.size());
            records_.push_back({slot, parent, opId_, 0, 0});
        }
        f.start = nowNs();
    }

    void
    pop()
    {
        const std::int64_t end = nowNs();
        const Frame &f = stack_[--depth_];
        const std::int64_t dur = end - f.start;
        const unsigned parent =
            depth_ > 0 ? stack_[depth_ - 1].slot : kNumSlots;
        Agg &a = agg_[parent][f.slot];
        a.calls++;
        a.totalNs += dur;
        a.childNs += f.childNs;
        a.children += f.children;
        if (depth_ > 0) {
            stack_[depth_ - 1].childNs += dur;
            stack_[depth_ - 1].children++;
        }
        if (f.record >= 0) {
            Record &r = records_[static_cast<std::size_t>(f.record)];
            r.start = f.start;
            r.end = end;
        }
    }

    bool enabled_ = false;
    bool sampled_ = false;
    std::uint64_t opId_ = 0;
    std::uint64_t ops_ = 0;
    std::int64_t opRecord_ = -1;
    std::array<Frame, 8> stack_{};
    unsigned depth_ = 0;
    std::array<std::array<Agg, kNumSlots>, kNumSlots + 1> agg_{};
    std::vector<Record> records_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
