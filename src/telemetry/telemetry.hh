/**
 * @file
 * Deterministic telemetry: a probe registry with an epoch sampler.
 *
 * Components publish named probes — callbacks the sampler reads — and
 * the sampler evaluates every probe at each simulated-cycle epoch
 * boundary (N, 2N, 3N, ...) into fixed-capacity time-series. Two probe
 * kinds exist:
 *
 *   gauge    an instantaneous quantity (LMT occupancy, queue depth);
 *            consumers plot the sampled value directly.
 *   counter  a monotone cumulative count (log flushes, NoC messages);
 *            consumers difference adjacent samples to get per-epoch
 *            rates.
 *
 * Determinism rules (the layer's reason to exist):
 *   - time is *simulated cycles only*; nothing here may read a host
 *     clock, and the sampler is advanced explicitly by the simulation
 *     driver at its global time front,
 *   - epoch boundaries depend only on the configured epoch length, so
 *     two runs of the same configuration sample at identical cycles
 *     regardless of sweep thread count,
 *   - probes are evaluated in registration order, which is itself
 *     deterministic (construction order of the system).
 *
 * A Registry is owned by one simulated system and is not thread-safe;
 * sweep-level parallelism keeps one Registry per task.
 */

#ifndef MORC_TELEMETRY_TELEMETRY_HH
#define MORC_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/types.hh"

namespace morc {
namespace telemetry {

enum class ProbeKind : std::uint8_t
{
    Gauge,
    Counter
};

/** One probe's sampled time-series. */
struct Series
{
    std::string name;
    ProbeKind kind = ProbeKind::Gauge;
    std::vector<double> values; // one entry per sampled epoch

    /** Snapshot walk (see snapshot/snapshot.hh). @p shape_is_state
     *  loads name and kind (a journaled record) instead of checking
     *  them against a live probe's. */
    template <typename Self, typename IO>
    static void
    walk(Self &s, IO &io, bool shape_is_state)
    {
        if (shape_is_state) {
            io.str(s.name);
            io.u8(s.kind,
                  static_cast<std::uint64_t>(ProbeKind::Counter) + 1,
                  "bad probe kind");
        } else {
            const char *probe = "telemetry probe mismatch (name or kind "
                                "differs from the live probe)";
            io.expect(s.name, probe);
            io.expect(static_cast<std::uint8_t>(s.kind), probe);
        }
        io.vecF64(s.values);
    }
};

/** Snapshot of every series a Registry sampled. */
struct SeriesSet
{
    /** Simulated cycles per epoch (0 = sampling was off). */
    Cycles epochCycles = 0;

    /** Samples recorded per series (all series stay in lockstep). */
    std::uint64_t samples = 0;

    /** Epoch boundaries past the series capacity (not recorded). */
    std::uint64_t droppedEpochs = 0;

    std::vector<Series> series;

    bool
    empty() const
    {
        return epochCycles == 0 || series.empty();
    }
};

/**
 * Probe registry + epoch sampler.
 *
 * Probes receive the epoch-boundary cycle they are being sampled at, so
 * time-dependent gauges (channel backlog, links busy *now*) can be
 * expressed without the component tracking a clock of its own.
 */
class Registry
{
  public:
    using ReadFn = std::function<double(Cycles now)>;

    /** Default cap on samples per series (~4 KB of doubles each). */
    static constexpr std::size_t kDefaultMaxSamples = 512;

    /**
     * @param epoch_cycles Simulated cycles between samples (> 0).
     * @param max_samples  Fixed series capacity; boundaries beyond it
     *                     are counted as dropped, not recorded.
     */
    explicit Registry(Cycles epoch_cycles,
                      std::size_t max_samples = kDefaultMaxSamples);

    void gauge(const std::string &name, ReadFn read);
    void counter(const std::string &name, ReadFn read);

    /**
     * Sample every probe for each epoch boundary <= @p now that has not
     * been sampled yet. The driver calls this with its monotone global
     * time front; a front that jumps several epochs at once records one
     * sample per crossed boundary (each evaluated at its boundary
     * cycle).
     */
    void advanceTo(Cycles now);

    /** Drop all samples and restart epoch 1 at cycle 0 (end of
     *  warm-up rebase). Registered probes are kept. */
    void restart();

    Cycles epochCycles() const { return epochCycles_; }
    std::uint64_t samples() const { return samples_; }
    std::uint64_t droppedEpochs() const { return droppedEpochs_; }
    std::size_t numProbes() const { return probes_.size(); }

    /** Copy out all series (registration order). */
    SeriesSet snapshot() const;

    /** Append sampler counters and every probe's sampled series. The
     *  probe callbacks themselves are not serialized — they re-bind at
     *  construction of the restored system. */
    void saveState(snap::Serializer &s) const;

    /** Restore sampler counters and series data; the live registry
     *  must hold identical probes (name, kind, order) and config. */
    void restoreState(snap::Deserializer &d);

  private:
    struct Probe
    {
        Series series;
        ReadFn read;
    };

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    void add(const std::string &name, ProbeKind kind, ReadFn read);

    Cycles epochCycles_;
    std::size_t maxSamples_;
    Cycles nextBoundary_;
    std::uint64_t samples_ = 0;
    std::uint64_t droppedEpochs_ = 0;
    std::vector<Probe> probes_;
};

} // namespace telemetry
} // namespace morc

#endif // MORC_TELEMETRY_TELEMETRY_HH
