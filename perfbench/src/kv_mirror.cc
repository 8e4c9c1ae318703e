#include "kv_mirror.hh"

#include <algorithm>

#include "digest.hh"
#include "sim/scheme.hh"
#include "util/rng.hh"

namespace perfbench {

using morc::Addr;
using morc::CacheLine;
using morc::Cycles;

namespace {

/** kv::Service's per-tenant value-seed salt ("kvval"). */
constexpr std::uint64_t kTenantValueSalt = 0x6b7676616c;

template <typename Fn>
void
forEachKvCounter(const KvCounters &c, Fn &&fn)
{
    fn("replies", c.replies);
    fn("requests", c.requests);
    fn("front.reads", c.front.reads);
    fn("front.read_hits", c.front.readHits);
    fn("front.inserts", c.front.inserts);
    fn("front.victim_writebacks", c.front.victimWritebacks);
    fn("front.lines_compressed", c.front.linesCompressed);
    fn("front.lines_decompressed", c.front.linesDecompressed);
    fn("front.bytes_decompressed", c.front.bytesDecompressed);
    fn("front.log_flushes", c.front.logFlushes);
    fn("front.lmt_conflict_evicts", c.front.lmtConflictEvicts);
    fn("tier.dram_hits", c.tier.dramHits);
    fn("tier.ssd_hits", c.tier.ssdHits);
    fn("tier.origin_fetches", c.tier.originFetches);
    fn("tier.promotions", c.tier.promotions);
    fn("tier.demotions", c.tier.demotions);
    fn("tier.ssd_drops", c.tier.ssdDrops);
    fn("tier.writebacks", c.tier.writebacks);
    fn("tier.dram_bytes", c.dramBytes);
    fn("tier.ssd_bytes", c.ssdBytes);
}

} // namespace

std::uint64_t
foldReply(std::uint64_t h, const morc::kv::Service::Reply &r)
{
    h = fnvFold(h, r.req.tenant);
    h = fnvFold(h, r.req.key);
    h = fnvFold(h, r.req.isSet);
    h = fnvFold(h, r.lines);
    h = fnvFold(h, r.latency);
    return fnvFold(h, r.digest);
}

KvCounters
kvCountersOf(const morc::cache::LlcStats &front,
             const morc::kv::TieredStore &tiers, std::uint64_t requests,
             std::uint64_t replies)
{
    KvCounters c;
    c.replies = replies;
    c.requests = requests;
    c.front = front;
    c.tier = tiers.stats();
    c.dramBytes = tiers.dramUsedBytes();
    c.ssdBytes = tiers.ssdUsedBytes();
    return c;
}

std::string
diffKvCounters(const KvCounters &a, const KvCounters &b)
{
    std::vector<std::pair<const char *, std::uint64_t>> va, vb;
    forEachKvCounter(a, [&](const char *n, std::uint64_t v) {
        va.emplace_back(n, v);
    });
    forEachKvCounter(b, [&](const char *n, std::uint64_t v) {
        vb.emplace_back(n, v);
    });
    for (std::size_t i = 0; i < va.size(); i++) {
        if (va[i].second != vb[i].second)
            return std::string(va[i].first) + " (" +
                   std::to_string(va[i].second) + " vs " +
                   std::to_string(vb[i].second) + ")";
    }
    return "";
}

std::uint64_t
digestKvCounters(const KvCounters &c)
{
    std::uint64_t h = kFnvBasis;
    forEachKvCounter(c, [&h](const char *, std::uint64_t v) {
        h = fnvFold(h, v);
    });
    return h;
}

// Each member below replicates the Service member of the same name
// (src/kv/service.cc); the additions are spans, the hit-value check and
// the self-test write-back drop.

KvMirror::KvMirror(const KvJob &job, SpanTracer &tracer)
    : cfg_(job.cfg),
      tr_(tracer),
      gen_(cfg_.seed, cfg_.tenants),
      front_(morc::sim::makeLlc(cfg_.scheme, cfg_.frontBytes)),
      tiers_(cfg_.tier)
{
    values_.reserve(cfg_.tenants.size());
    for (std::size_t i = 0; i < cfg_.tenants.size(); i++) {
        morc::trace::KvProfile p = cfg_.values;
        p.seed = morc::mix64(cfg_.values.seed ^ kTenantValueSalt, i + 1);
        values_.emplace_back(p);
    }
}

Addr
KvMirror::addrOf(std::uint32_t tenant, std::uint64_t key,
                 std::uint32_t line_idx) const
{
    const std::uint64_t line =
        (static_cast<std::uint64_t>(tenant + 1) << 34) |
        (key * values_[tenant].maxValueLines() + line_idx);
    return line << morc::kLineShift;
}

void
KvMirror::writeback(const morc::cache::FillResult &fill)
{
    for (const morc::cache::Writeback &wb : fill.writebacks) {
        if (writebacks_++ == dropAt_)
            continue;
        tr_.timed(KvTierWriteback,
                  [&] { tiers_.writeback(wb.addr, wb.data); });
    }
}

morc::kv::Service::Reply
KvMirror::step()
{
    morc::kv::Service::Reply r;
    tr_.beginOp(requests_);
    r.req = tr_.timed(KvGenerator, [&] { return gen_.next(); });
    const std::uint32_t t = r.req.tenant;
    const std::uint64_t key = r.req.key;
    morc::trace::KvValueModel &vm = values_[t];
    r.lines = tr_.timed(TraceValues, [&] { return vm.valueLines(key); });
    r.digest = morc::kv::kDigestBasis;

    Cycles lat = 0;
    if (r.req.isSet) {
        const std::uint32_t version =
            tr_.timed(TraceValues, [&] { return vm.bump(key); });
        for (std::uint32_t i = 0; i < r.lines; i++) {
            const Addr a = addrOf(t, key, i);
            const CacheLine data = tr_.timed(
                TraceValues, [&] { return vm.line(key, i, version); });
            r.digest = morc::kv::digestLine(r.digest, a, data);
            writeback(tr_.timed(
                CacheSet, [&] { return front_->insert(a, data, true); }));
        }
        lat = cfg_.frontLatency +
              cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
    } else {
        const std::uint32_t version =
            tr_.timed(TraceValues, [&] { return vm.version(key); });
        Cycles worst = 0;
        for (std::uint32_t i = 0; i < r.lines; i++) {
            const Addr a = addrOf(t, key, i);
            const morc::cache::ReadResult rr =
                tr_.timed(CacheRead, [&] { return front_->read(a); });
            Cycles lineLat;
            CacheLine data;
            if (rr.hit) {
                data = rr.data;
                lineLat = cfg_.frontLatency + rr.extraLatency;
                tr_.timed(Harness, [&] {
                    if (!(data == vm.line(key, i, version)))
                        valueMismatches_++;
                });
            } else {
                data = tr_.timed(TraceValues,
                                 [&] { return vm.line(key, i, version); });
                const morc::kv::TieredStore::FetchResult fr = tr_.timed(
                    KvTierFetch, [&] { return tiers_.fetch(a, data); });
                lineLat = cfg_.frontLatency + fr.latency;
                writeback(tr_.timed(CacheFill, [&] {
                    return front_->insert(a, data, false);
                }));
            }
            r.digest = morc::kv::digestLine(r.digest, a, data);
            worst = std::max(worst, lineLat);
        }
        lat = worst + cfg_.lineStep * (r.lines > 0 ? r.lines - 1 : 0);
    }
    r.latency = lat;
    requests_++;
    tr_.endOp();
    return r;
}

} // namespace perfbench
