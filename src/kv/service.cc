#include "kv/service.hh"

#include <algorithm>

#include "check/check.hh"

namespace morc {
namespace kv {

namespace {

/** Latency histogram buckets: geometric grid from a bare front hit
 *  (~12 cycles) past origin fetches (~20k cycles), fine enough that
 *  p50/p99/p99.9 resolve to distinct tiers. */
std::vector<std::uint64_t>
latencyBounds()
{
    return {16,    24,    32,    48,    64,    96,   128,  192,  256,
            384,   512,   768,   1024,  1536,  2048, 3072, 4096, 6144,
            8192,  12288, 16384, 24576, 32768, 49152, 65536};
}

/** Per-tenant value seed: tenants own disjoint corpora. */
constexpr std::uint64_t kTenantValueSalt = 0x6b7676616c; // "kvval"

} // namespace

std::uint64_t
digestLine(std::uint64_t h, Addr addr, const CacheLine &data)
{
    h = (h ^ addr) * 1099511628211ull;
    for (unsigned w = 0; w < kWordsPerLine / 2; w++)
        h = (h ^ data.word64(w)) * 1099511628211ull;
    return h;
}

template <typename Self, typename IO>
void
TenantStats::walk(Self &self, IO &io)
{
    io.u64(self.requests);
    io.u64(self.gets);
    io.u64(self.sets);
    io.u64(self.lineReads);
    io.u64(self.frontHits);
    io.u64(self.latencySum);
}

void
TenantStats::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
TenantStats::restore(snap::Deserializer &d)
{
    walk(*this, d);
}

double
histPercentile(const stats::Histogram &h, double q)
{
    if (h.total() == 0)
        return 0.0;
    const double threshold = q * static_cast<double>(h.total());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.numBuckets(); i++) {
        cum += h.count(i);
        if (static_cast<double>(cum) >= threshold) {
            if (i + 1 == h.numBuckets()) // overflow bucket
                return 2.0 * static_cast<double>(
                                 h.upperBound(h.numBuckets() - 2));
            return static_cast<double>(h.upperBound(i));
        }
    }
    return 2.0 * static_cast<double>(h.upperBound(h.numBuckets() - 2));
}

Service::Service(const ServiceConfig &cfg)
    : cfg_(cfg), gen_(cfg.seed, cfg.tenants),
      front_(sim::makeLlc(cfg.scheme, cfg.frontBytes)),
      tiers_(cfg.tier), allLat_(latencyBounds())
{
    const std::size_t n = cfg_.tenants.size();
    values_.reserve(n);
    tenantLat_.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        trace::KvProfile p = cfg_.values;
        p.seed = mix64(cfg_.values.seed ^ kTenantValueSalt, i + 1);
        values_.emplace_back(p);
        tenantLat_.emplace_back(latencyBounds());
    }
    tstats_.resize(n);
    if (cfg_.telemetryEpoch != 0) {
        telemetry_ =
            std::make_unique<telemetry::Registry>(cfg_.telemetryEpoch);
        registerProbes();
    }
}

void
Service::registerProbes()
{
    front_->registerProbes(*telemetry_, "kv.front");
    tiers_.registerProbes(*telemetry_, "kv.tier");
    telemetry_->counter("kv.svc.requests", [this](Cycles) {
        return static_cast<double>(requests_);
    });
    telemetry_->counter("kv.svc.front_hits", [this](Cycles) {
        return static_cast<double>(front_->stats().readHits);
    });
    telemetry_->gauge("kv.svc.dirty_keys", [this](Cycles) {
        double dirty = 0;
        for (const auto &vm : values_)
            dirty += static_cast<double>(vm.dirtyKeys());
        return dirty;
    });
}

Addr
Service::addrOf(std::uint32_t tenant, std::uint64_t key,
                std::uint32_t line_idx) const
{
    // Tenants own disjoint address partitions; each key owns a
    // max-value-lines stride so values never overlap.
    const std::uint64_t line =
        (static_cast<std::uint64_t>(tenant + 1) << 34) |
        (key * values_[tenant].maxValueLines() + line_idx);
    return line << kLineShift;
}

Service::Reply
Service::step()
{
    Reply r;
    r.req = gen_.next();
    const std::uint32_t t = r.req.tenant;
    trace::KvValueModel &vm = values_[t];
    TenantStats &ts = tstats_[t];
    r.lines = vm.valueLines(r.req.key);
    r.digest = kDigestBasis;

    Cycles lat = 0;
    if (r.req.isSet) {
        const std::uint32_t version = vm.bump(r.req.key);
        for (std::uint32_t i = 0; i < r.lines; i++) {
            const Addr a = addrOf(t, r.req.key, i);
            const CacheLine data = vm.line(r.req.key, i, version);
            r.digest = digestLine(r.digest, a, data);
            cache::FillResult fill = front_->insert(a, data, true);
            for (const cache::Writeback &wb : fill.writebacks)
                tiers_.writeback(wb.addr, wb.data);
        }
        lat = cfg_.frontLatency +
              cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
        ts.sets++;
    } else {
        const std::uint32_t version = vm.version(r.req.key);
        Cycles worst = 0;
        for (std::uint32_t i = 0; i < r.lines; i++) {
            const Addr a = addrOf(t, r.req.key, i);
            cache::ReadResult rr = front_->read(a);
            Cycles lineLat;
            CacheLine data;
            if (rr.hit) {
                data = rr.data;
                lineLat = cfg_.frontLatency + rr.extraLatency;
                ts.frontHits++;
            } else {
                data = vm.line(r.req.key, i, version);
                const TieredStore::FetchResult fr = tiers_.fetch(a, data);
                lineLat = cfg_.frontLatency + fr.latency;
                cache::FillResult fill = front_->insert(a, data, false);
                for (const cache::Writeback &wb : fill.writebacks)
                    tiers_.writeback(wb.addr, wb.data);
            }
            r.digest = digestLine(r.digest, a, data);
            worst = std::max(worst, lineLat);
            ts.lineReads++;
        }
        // Lines are probed in parallel; the value assembles at the
        // slowest line plus a per-line pipelining step.
        lat = worst + cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
        ts.gets++;
    }
    r.latency = lat;
    ts.requests++;
    ts.latencySum += lat;
    tenantLat_[t].record(lat);
    allLat_.record(lat);
    requests_++;
    cycles_ += lat + 1;
    if (telemetry_)
        telemetry_->advanceTo(cycles_);
    return r;
}

void
Service::run(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; i++)
        step();
}

telemetry::SeriesSet
Service::series() const
{
    return telemetry_ ? telemetry_->snapshot() : telemetry::SeriesSet{};
}

check::AuditReport
Service::audit() const
{
    check::AuditReport r;
    r.merge(front_->audit(), "front: ");
    r.merge(tiers_.audit(), "tier: ");

    std::uint64_t requests = 0, lineReads = 0, frontHits = 0,
                  latencyTotal = 0;
    for (std::size_t i = 0; i < tstats_.size(); i++) {
        requests += tstats_[i].requests;
        lineReads += tstats_[i].lineReads;
        frontHits += tstats_[i].frontHits;
        latencyTotal += tenantLat_[i].total();
        r.require(tstats_[i].gets + tstats_[i].sets ==
                      tstats_[i].requests,
                  "tenant %zu GET+SET %llu != requests %llu", i,
                  static_cast<unsigned long long>(tstats_[i].gets +
                                                  tstats_[i].sets),
                  static_cast<unsigned long long>(tstats_[i].requests));
        r.require(tenantLat_[i].total() == tstats_[i].requests,
                  "tenant %zu latency histogram total %llu != "
                  "requests %llu",
                  i,
                  static_cast<unsigned long long>(tenantLat_[i].total()),
                  static_cast<unsigned long long>(tstats_[i].requests));
    }
    r.require(requests == requests_,
              "tenant request sum %llu != service total %llu",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(requests_));
    r.require(gen_.served() == requests_,
              "generator served %llu != service requests %llu",
              static_cast<unsigned long long>(gen_.served()),
              static_cast<unsigned long long>(requests_));
    r.require(allLat_.total() == requests_,
              "aggregate latency histogram total %llu != requests %llu",
              static_cast<unsigned long long>(allLat_.total()),
              static_cast<unsigned long long>(requests_));
    r.require(front_->stats().reads == lineReads,
              "front reads %llu != GET line probes %llu",
              static_cast<unsigned long long>(front_->stats().reads),
              static_cast<unsigned long long>(lineReads));
    r.require(front_->stats().readHits == frontHits,
              "front hits %llu != tenant hit sum %llu",
              static_cast<unsigned long long>(front_->stats().readHits),
              static_cast<unsigned long long>(frontHits));
    (void)latencyTotal;
    return r;
}

template <typename Self, typename IO>
void
Service::walk(Self &self, IO &io)
{
    io.section("KVSV", [&] {
        io.u64(self.cycles_);
        io.u64(self.requests_);
        io.expect(static_cast<std::uint64_t>(self.values_.size()),
                  "kv::Service tenant count mismatch");
        io.part(self.gen_);
        io.part(*self.front_);
        io.part(self.tiers_);
        for (std::size_t i = 0; i < self.values_.size(); i++) {
            io.part(self.values_[i]);
            io.part(self.tstats_[i]);
            io.part(self.tenantLat_[i]);
        }
        io.part(self.allLat_);
        io.expect(static_cast<std::uint8_t>(self.telemetry_ ? 1 : 0),
                  "kv::Service telemetry configuration mismatch");
        if (self.telemetry_)
            io.part(*self.telemetry_);
    });
}

void
Service::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
Service::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
}

} // namespace kv
} // namespace morc
