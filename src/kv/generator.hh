/**
 * @file
 * Multi-tenant Zipf request generation for the KV-serving subsystem.
 *
 * A Generator merges per-tenant request streams into one service-order
 * stream. Each tenant owns an independent Zipf-distributed key
 * popularity curve over its private key space, a GET/SET mix, a QoS
 * weight, and an optional hot-working-set drift that rotates which
 * ranks are popular as the stream progresses — the service-shaped churn
 * that stresses eviction in ways SPEC replays never do.
 *
 * Determinism rules:
 *   - every tenant's RNG is seeded from (base seed, tenant index) only,
 *   - tenant interleaving is smooth weighted round-robin — pure credit
 *     arithmetic, no randomness, ties broken by lowest index —
 * so the request sequence is a pure function of the configuration, and
 * sweep `--jobs` can never reorder or reshuffle it.
 */

#ifndef MORC_KV_GENERATOR_HH
#define MORC_KV_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/snapshot.hh"
#include "util/rng.hh"
#include "util/zipf.hh"

namespace morc {
namespace kv {

/** One tenant's traffic contract. */
struct TenantConfig
{
    std::string name = "tenant";

    /** Private key-space size. */
    std::uint64_t keys = 1ull << 18;

    /** Zipf skew of key popularity. */
    double theta = 0.99;

    /** QoS share: requests are interleaved proportionally to weight. */
    std::uint32_t weight = 1;

    /** Fraction of requests that are SETs (rest are GETs). */
    double setFrac = 0.1;

    /**
     * Hot-working-set drift: every @p driftPeriod tenant requests, the
     * mapping from popularity rank to key rotates by @p driftStride
     * keys, so yesterday's cold keys become today's hot set. 0 = no
     * drift.
     */
    std::uint64_t driftPeriod = 0;
    std::uint64_t driftStride = 0;
};

/** One service request. */
struct Request
{
    std::uint32_t tenant = 0;
    std::uint64_t key = 0;
    bool isSet = false;
};

/** Deterministic merged multi-tenant request stream. */
class Generator
{
  public:
    Generator(std::uint64_t seed, std::vector<TenantConfig> tenants);

    /** Produce the next request in service order. */
    Request next();

    /** Requests produced so far (all tenants). */
    std::uint64_t served() const { return served_; }

    /** Requests produced so far for @p tenant. */
    std::uint64_t
    served(std::uint32_t tenant) const
    {
        return state_[tenant].served;
    }

    const std::vector<TenantConfig> &tenants() const { return cfg_; }

    /** Append RNG/counter/credit state for every tenant. */
    void save(snap::Serializer &s) const;

    /** Restore state written by save(); the live generator must hold
     *  the same tenant count. */
    void restore(snap::Deserializer &d);

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    struct Tenant
    {
        Rng rng{1};
        std::uint64_t served = 0;
        std::int64_t credit = 0;
    };

    std::vector<TenantConfig> cfg_; // morc-analyze: allow(snapshot-completeness) construction-time config; restore() re-binds
    std::vector<ZipfSampler> zipf_; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::int64_t totalWeight_ = 0; // morc-analyze: allow(snapshot-completeness) derived from cfg_
    std::vector<Tenant> state_;
    std::uint64_t served_ = 0;
};

} // namespace kv
} // namespace morc

#endif // MORC_KV_GENERATOR_HH
