#include "kv/generator.hh"

#include "check/check.hh"

namespace morc {
namespace kv {

namespace {

/** Seed salt separating tenant RNG streams from everything else. */
constexpr std::uint64_t kTenantSalt = 0x6b767467; // "kvtg"

} // namespace

Generator::Generator(std::uint64_t seed,
                     std::vector<TenantConfig> tenants)
    : cfg_(std::move(tenants))
{
    MORC_CHECK(!cfg_.empty(), "generator needs at least one tenant");
    zipf_.reserve(cfg_.size());
    state_.resize(cfg_.size());
    for (std::size_t i = 0; i < cfg_.size(); i++) {
        const TenantConfig &t = cfg_[i];
        MORC_CHECK(t.keys > 0, "tenant key space must be non-empty");
        MORC_CHECK(t.weight > 0, "tenant weight must be positive");
        zipf_.emplace_back(t.keys, t.theta);
        state_[i].rng =
            Rng(splitmix64(seed ^ mix64(kTenantSalt, i + 1)));
        totalWeight_ += t.weight;
    }
}

Request
Generator::next()
{
    // Smooth weighted round-robin: deterministic, and proportional to
    // weight over any window — the QoS contract a service scheduler
    // would enforce with per-tenant token buckets.
    std::size_t winner = 0;
    for (std::size_t i = 0; i < state_.size(); i++) {
        state_[i].credit += cfg_[i].weight;
        if (state_[i].credit > state_[winner].credit)
            winner = i;
    }
    Tenant &t = state_[winner];
    const TenantConfig &c = cfg_[winner];
    t.credit -= totalWeight_;

    const std::uint64_t rank = zipf_[winner].sample(t.rng);
    std::uint64_t key = rank;
    if (c.driftPeriod != 0 && c.driftStride != 0) {
        const std::uint64_t epoch = t.served / c.driftPeriod;
        key = (rank + epoch * c.driftStride) % c.keys;
    }
    Request req;
    req.tenant = static_cast<std::uint32_t>(winner);
    req.key = key;
    req.isSet = t.rng.uniform() < c.setFrac;
    t.served++;
    served_++;
    return req;
}

template <typename Self, typename IO>
void
Generator::walk(Self &self, IO &io)
{
    io.expect(static_cast<std::uint64_t>(self.state_.size()),
              "kv::Generator tenant count mismatch");
    for (auto &t : self.state_) {
        Rng::walk(t.rng, io);
        io.u64(t.served);
        io.i64(t.credit);
    }
    io.u64(self.served_);
}

void
Generator::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Generator::restore(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace kv
} // namespace morc
