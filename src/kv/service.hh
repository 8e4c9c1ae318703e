/**
 * @file
 * Memcached-style KV service modeled on the compressed-cache simulators.
 *
 * A Service wires the subsystem together: a multi-tenant Zipf Generator
 * produces GET/SET requests; values are synthesized per tenant by a
 * KvValueModel (JSON-like / counter-dense / blob redundancy classes);
 * the hot tier is any `cache::Llc` scheme built through `sim::makeLlc`
 * (so MORC and every baseline drop in unchanged); front misses fetch
 * through a DRAM/SSD TieredStore with per-tier compression.
 *
 * Requests are served closed-loop on a logical cycle clock: a request's
 * value lines are probed in parallel (latency = slowest line + a small
 * per-line pipelining term) and the clock advances by the request
 * latency. Per-tenant and aggregate latency histograms feed the
 * p50/p99/p99.9 percentiles of the schema-v4 report section; telemetry
 * probes sample every layer on the same epoch grid as sim::System.
 *
 * Everything is deterministic (tenant-seeded RNG only) and fully
 * snapshot-covered: front cache, tiers, generator, value models,
 * histograms, counters, and the telemetry registry, so a mid-run
 * snapshot restores to byte-identical replay.
 */

#ifndef MORC_KV_SERVICE_HH
#define MORC_KV_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "kv/generator.hh"
#include "kv/tier.hh"
#include "sim/scheme.hh"
#include "stats/histogram.hh"
#include "trace/value_model.hh"

namespace morc {
namespace kv {

/** Full configuration of one simulated service. */
struct ServiceConfig
{
    sim::Scheme scheme = sim::Scheme::Morc;

    /** Front (hot-tier) cache capacity in bytes. */
    std::uint64_t frontBytes = 1ull << 20;

    /** Base front-cache access latency (cycles); decompression adds
     *  the scheme's extraLatency on top. */
    Cycles frontLatency = 12;

    /** Per-line pipelining cost for multi-line values. */
    Cycles lineStep = 2;

    TierConfig tier;

    /** Value-corpus knobs; each tenant derives its own seed from
     *  values.seed and the tenant index. */
    trace::KvProfile values;

    std::vector<TenantConfig> tenants;

    /** Base seed of the request streams. */
    std::uint64_t seed = 1;

    /** Telemetry sampling epoch in cycles (0 = off). */
    Cycles telemetryEpoch = 0;
};

/** Per-tenant service counters. */
struct TenantStats
{
    std::uint64_t requests = 0;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t lineReads = 0;
    std::uint64_t frontHits = 0;
    std::uint64_t latencySum = 0;

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
};

/** Deterministic latency percentile from a histogram: the inclusive
 *  upper bound of the bucket where the cumulative count first reaches
 *  @p q of the total (overflow bucket reports twice the last bound).
 *  Returns 0 for an empty histogram. */
double histPercentile(const stats::Histogram &h, double q);

/** Seed value of a Reply digest chain. */
constexpr std::uint64_t kDigestBasis = 1469598103934665603ull;

/** FNV-1a chaining of one line into a Reply digest. Exposed so the
 *  morc_check differential fuzzer can recompute expected digests from
 *  its reference ledger. */
std::uint64_t digestLine(std::uint64_t h, Addr addr,
                         const CacheLine &data);

class Service : public check::Auditable, public snap::Snapshottable
{
  public:
    explicit Service(const ServiceConfig &cfg);

    /** Outcome of one request (for differential checking). */
    struct Reply
    {
        Request req;
        std::uint32_t lines = 0;
        Cycles latency = 0;

        /** FNV-1a digest of every line read (GET) / written (SET). */
        std::uint64_t digest = 0;
    };

    /** Serve the next request. */
    Reply step();

    /** Serve @p n requests. */
    void run(std::uint64_t n);

    const cache::Llc &front() const { return *front_; }
    const TieredStore &tiers() const { return tiers_; }
    const Generator &generator() const { return gen_; }
    const trace::KvValueModel &values(unsigned t) const
    {
        return values_[t];
    }
    Cycles cycles() const { return cycles_; }
    std::uint64_t requests() const { return requests_; }
    const ServiceConfig &config() const { return cfg_; }

    const TenantStats &tenantStats(unsigned t) const
    {
        return tstats_[t];
    }
    const stats::Histogram &tenantLatency(unsigned t) const
    {
        return tenantLat_[t];
    }
    const stats::Histogram &latency() const { return allLat_; }

    /** Telemetry series sampled so far (empty when epoch = 0). */
    telemetry::SeriesSet series() const;

    /** Front + tier + service-level cross-consistency invariants. */
    check::AuditReport audit() const override;

    void saveState(snap::Serializer &s) const override;
    void restoreState(snap::Deserializer &d) override;

    /** Cache-line address of line @p line_idx of (@p tenant, @p key).
     *  Public so the differential fuzzer can mirror the mapping. */
    Addr addrOf(std::uint32_t tenant, std::uint64_t key,
                std::uint32_t line_idx) const;

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    void registerProbes();

    ServiceConfig cfg_; // morc-analyze: allow(snapshot-completeness) construction-time config; restoreState() re-binds
    Generator gen_;
    std::unique_ptr<cache::Llc> front_;
    TieredStore tiers_;
    std::vector<trace::KvValueModel> values_;
    std::vector<TenantStats> tstats_;
    std::vector<stats::Histogram> tenantLat_;
    stats::Histogram allLat_;
    Cycles cycles_ = 0;
    std::uint64_t requests_ = 0;
    std::unique_ptr<telemetry::Registry> telemetry_;
};

} // namespace kv
} // namespace morc

#endif // MORC_KV_SERVICE_HH
