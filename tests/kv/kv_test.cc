/**
 * @file
 * Unit and snapshot tests for the KV serving subsystem (src/kv).
 *
 * Covers each layer in isolation — generator QoS arithmetic and drift,
 * value-model purity/versioning/snapshot, tiered-store exclusivity,
 * budget enforcement (including the writeback-growth path where a
 * rewrite compresses worse than what it replaced) — and the acceptance
 * criterion end to end: a mid-run service snapshot restores into a
 * twin that replays the rest of the stream to byte-identical final
 * serialized state.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "kv/generator.hh"
#include "kv/service.hh"
#include "kv/tier.hh"
#include "snapshot/snapshot.hh"
#include "trace/value_model.hh"
#include "util/rng.hh"

namespace morc {
namespace {

// ------------------------------------------------------------------
// Generator
// ------------------------------------------------------------------

std::vector<kv::TenantConfig>
twoTenants()
{
    kv::TenantConfig a;
    a.name = "a";
    a.keys = 1024;
    a.theta = 1.1;
    a.weight = 3;
    a.setFrac = 0.2;
    kv::TenantConfig b;
    b.name = "b";
    b.keys = 2048;
    b.theta = 0.8;
    b.weight = 1;
    b.setFrac = 0.4;
    return {a, b};
}

TEST(KvGenerator, QosSharesAreExactlyProportionalToWeights)
{
    kv::Generator gen(7, twoTenants());
    for (int i = 0; i < 4000; i++)
        gen.next();
    // Smooth weighted round-robin is exact over whole weight cycles:
    // 4000 requests = 1000 cycles of (3 + 1).
    EXPECT_EQ(gen.served(0), 3000u);
    EXPECT_EQ(gen.served(1), 1000u);
    EXPECT_EQ(gen.served(), 4000u);
}

TEST(KvGenerator, StreamsAreDeterministicPerSeed)
{
    kv::Generator g1(7, twoTenants());
    kv::Generator g2(7, twoTenants());
    kv::Generator g3(8, twoTenants());
    bool any_diff = false;
    for (int i = 0; i < 2000; i++) {
        const kv::Request a = g1.next();
        const kv::Request b = g2.next();
        const kv::Request c = g3.next();
        ASSERT_EQ(a.tenant, b.tenant);
        ASSERT_EQ(a.key, b.key);
        ASSERT_EQ(a.isSet, b.isSet);
        any_diff = any_diff || a.key != c.key || a.isSet != c.isSet;
    }
    EXPECT_TRUE(any_diff) << "seed must matter";
}

TEST(KvGenerator, SnapshotResumesTheExactStream)
{
    kv::Generator gen(11, twoTenants());
    for (int i = 0; i < 500; i++)
        gen.next();
    snap::Serializer s;
    gen.save(s);
    const std::vector<std::uint8_t> frame = s.frame();

    std::vector<kv::Request> expect;
    for (int i = 0; i < 300; i++)
        expect.push_back(gen.next());

    kv::Generator twin(999, twoTenants()); // wrong seed: restore wins
    snap::Deserializer d(frame);
    twin.restore(d);
    ASSERT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(twin.served(), 500u);
    for (const kv::Request &e : expect) {
        const kv::Request r = twin.next();
        ASSERT_EQ(r.tenant, e.tenant);
        ASSERT_EQ(r.key, e.key);
        ASSERT_EQ(r.isSet, e.isSet);
    }
}

TEST(KvGenerator, DriftRotatesTheHotWorkingSet)
{
    kv::TenantConfig t;
    t.name = "drift";
    t.keys = 1000;
    t.theta = 2.0; // rank 0 dominates
    t.setFrac = 0.0;
    t.driftPeriod = 100;
    t.driftStride = 7;
    kv::Generator gen(3, {t});

    auto mode = [&](int reqs) {
        std::map<std::uint64_t, int> freq;
        for (int i = 0; i < reqs; i++)
            freq[gen.next().key]++;
        std::uint64_t best = 0;
        int n = -1;
        for (const auto &kv : freq)
            if (kv.second > n) {
                n = kv.second;
                best = kv.first;
            }
        return best;
    };

    const std::uint64_t early = mode(100);
    for (int i = 0; i < 10'000; i++)
        gen.next();
    const std::uint64_t late = mode(100);
    EXPECT_NE(early, late)
        << "after 100 drift periods the hot key must have moved";
}

// ------------------------------------------------------------------
// KvValueModel
// ------------------------------------------------------------------

trace::KvProfile
testProfile()
{
    trace::KvProfile p;
    p.seed = 0x1234;
    return p;
}

std::uint64_t
keyOfClass(const trace::KvValueModel &vm, trace::ValueClass c)
{
    for (std::uint64_t k = 0; k < 100'000; k++)
        if (vm.classOf(k) == c)
            return k;
    ADD_FAILURE() << "no key of class " << trace::valueClassName(c);
    return 0;
}

TEST(KvValueModel, ClassMixTracksTheProfile)
{
    trace::KvValueModel vm(testProfile());
    const std::uint64_t n = 20'000;
    std::uint64_t counts[3] = {0, 0, 0};
    for (std::uint64_t k = 0; k < n; k++) {
        const trace::ValueClass c = vm.classOf(k);
        ASSERT_EQ(c, vm.classOf(k)) << "class must be stable";
        counts[static_cast<int>(c)]++;
    }
    const double jf = double(counts[0]) / n;
    const double cf = double(counts[1]) / n;
    EXPECT_NEAR(jf, testProfile().jsonFrac, 0.03);
    EXPECT_NEAR(cf, testProfile().counterFrac, 0.03);
    // Sizes follow classes.
    trace::KvProfile p = testProfile();
    EXPECT_EQ(vm.valueLines(keyOfClass(vm, trace::ValueClass::JsonLike)),
              p.jsonLines);
    EXPECT_EQ(vm.valueLines(keyOfClass(vm, trace::ValueClass::Blob)),
              p.blobLines);
    EXPECT_EQ(vm.maxValueLines(), p.blobLines);
}

TEST(KvValueModel, LinesArePureFunctionsOfKeyIndexVersion)
{
    trace::KvValueModel vm(testProfile());
    trace::KvValueModel vm2(testProfile());
    for (const trace::ValueClass c :
         {trace::ValueClass::JsonLike, trace::ValueClass::CounterDense,
          trace::ValueClass::Blob}) {
        const std::uint64_t k = keyOfClass(vm, c);
        for (std::uint32_t v : {0u, 1u, 7u}) {
            ASSERT_TRUE(vm.line(k, 0, v) == vm.line(k, 0, v));
            ASSERT_TRUE(vm.line(k, 0, v) == vm2.line(k, 0, v));
        }
        // A SET must actually change the bytes.
        EXPECT_FALSE(vm.line(k, 0, 0) == vm.line(k, 0, 1))
            << trace::valueClassName(c);
    }
}

TEST(KvValueModel, VersionsBumpAndSnapshotRoundTrips)
{
    trace::KvValueModel vm(testProfile());
    EXPECT_EQ(vm.version(5), 0u);
    EXPECT_EQ(vm.bump(5), 1u);
    EXPECT_EQ(vm.bump(5), 2u);
    EXPECT_EQ(vm.bump(9), 1u);
    EXPECT_EQ(vm.version(5), 2u);
    EXPECT_EQ(vm.dirtyKeys(), 2u);

    snap::Serializer s;
    vm.save(s);
    const std::vector<std::uint8_t> frame = s.frame();

    // Restore into a model with *different* knobs: the saved
    // redundancy knobs must win, and synthesized contents must match
    // the original byte for byte.
    trace::KvProfile other;
    other.seed = 999;
    other.tokenPoolSize = 7;
    other.jsonFrac = 0.01;
    trace::KvValueModel twin(other);
    snap::Deserializer d(frame);
    twin.restore(d);
    ASSERT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(twin.profile().seed, testProfile().seed);
    EXPECT_EQ(twin.profile().tokenPoolSize, testProfile().tokenPoolSize);
    EXPECT_EQ(twin.version(5), 2u);
    EXPECT_EQ(twin.version(9), 1u);
    EXPECT_EQ(twin.dirtyKeys(), 2u);
    for (std::uint64_t k : {0ull, 5ull, 9ull, 4321ull})
        for (std::uint32_t i = 0; i < vm.valueLines(k); i++)
            ASSERT_TRUE(vm.line(k, i, vm.version(k)) ==
                        twin.line(k, i, twin.version(k)))
                << "key " << k << " line " << i;
}

/** A KvValueModel snapshot written by hand in the real layout: the
 *  default knobs with @p tweak applied, and no SET keys. */
template <typename Tweak>
std::vector<std::uint8_t>
kvModelFrame(Tweak &&tweak)
{
    trace::KvProfile p;
    tweak(p);
    snap::Serializer s;
    s.u64(p.seed);
    s.f64(p.jsonFrac);
    s.f64(p.counterFrac);
    s.u32(p.jsonLines);
    s.u32(p.counterLines);
    s.u32(p.blobLines);
    s.u32(p.tokenPoolSize);
    s.f64(p.tokenTheta);
    s.f64(p.setChurn);
    s.u64(0); // version map entries
    return s.frame();
}

bool
kvModelRestores(const std::vector<std::uint8_t> &frame)
{
    trace::KvValueModel vm{trace::KvProfile{}};
    snap::Deserializer d(frame);
    vm.restore(d);
    return d.ok();
}

TEST(KvValueModel, RestoreRejectsOversizedKnobs)
{
    // The untouched frame is byte for byte a fresh model's save, and the
    // largest knobs a restore adopts still restore.
    snap::Serializer fresh;
    trace::KvValueModel{trace::KvProfile{}}.save(fresh);
    EXPECT_EQ(kvModelFrame([](trace::KvProfile &) {}), fresh.frame());
    EXPECT_TRUE(kvModelRestores(kvModelFrame([](trace::KvProfile &p) {
        p.tokenPoolSize = 65536;
        p.jsonLines = p.counterLines = p.blobLines = 64;
    })));
    // One past either limit is refused before the token table is built
    // or a request walks the value's lines.
    EXPECT_FALSE(kvModelRestores(kvModelFrame(
        [](trace::KvProfile &p) { p.tokenPoolSize = 65537; })));
    EXPECT_FALSE(kvModelRestores(
        kvModelFrame([](trace::KvProfile &p) { p.jsonLines = 65; })));
    EXPECT_FALSE(kvModelRestores(
        kvModelFrame([](trace::KvProfile &p) { p.counterLines = 65; })));
    EXPECT_FALSE(kvModelRestores(
        kvModelFrame([](trace::KvProfile &p) { p.blobLines = 65; })));
}

TEST(KvValueModel, RestoredThetaThatOverflowsTheWeightsStillDraws)
{
    // A theta is adopted as restored; one that overflows the token
    // pool's weights leaves NaN in its CDF, which must still draw
    // in-range tokens.
    for (const double theta : {std::nan(""), -2000.0}) {
        trace::KvValueModel vm{trace::KvProfile{}};
        snap::Deserializer d(kvModelFrame(
            [&](trace::KvProfile &p) { p.tokenTheta = theta; }));
        vm.restore(d);
        ASSERT_TRUE(d.ok()) << d.error();
        const std::uint64_t k =
            keyOfClass(vm, trace::ValueClass::JsonLike);
        for (std::uint32_t v = 0; v < 64; v++)
            EXPECT_TRUE(vm.line(k, 0, v) == vm.line(k, 0, v));
    }
}

// ------------------------------------------------------------------
// TieredStore
// ------------------------------------------------------------------

CacheLine
zeroLine()
{
    return CacheLine();
}

CacheLine
noisyLine(std::uint64_t salt)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine / 2; w++)
        l.setWord64(w, splitmix64(mix64(salt, w)));
    return l;
}

kv::TierConfig
tinyTiers()
{
    kv::TierConfig cfg;
    cfg.dramBytes = 4 * 1024;
    cfg.ssdBytes = 16 * 1024;
    return cfg;
}

TEST(KvTieredStore, PromotionIsExclusiveAndAudited)
{
    kv::TieredStore ts(tinyTiers());
    const Addr hot = 0x1000;
    EXPECT_EQ(ts.fetch(hot, noisyLine(1)).level, kv::TierLevel::Origin);
    EXPECT_EQ(ts.fetch(hot, noisyLine(1)).level, kv::TierLevel::Dram);
    // Push enough distinct incompressible lines through DRAM to demote
    // the hot line to SSD.
    for (Addr a = 0x100000; a < 0x100000 + 0x40 * 256; a += 0x40)
        ts.fetch(a, noisyLine(a));
    ASSERT_TRUE(ts.audit().ok()) << ts.audit().str();
    EXPECT_GT(ts.stats().demotions, 0u);
    const auto back = ts.fetch(hot, noisyLine(1));
    EXPECT_EQ(back.level, kv::TierLevel::Ssd);
    EXPECT_GT(ts.stats().promotions, 0u);
    EXPECT_EQ(ts.fetch(hot, noisyLine(1)).level, kv::TierLevel::Dram);
    ASSERT_TRUE(ts.audit().ok()) << ts.audit().str();
}

TEST(KvTieredStore, WritebackGrowthCannotBustTheBudget)
{
    // Regression: fill DRAM with highly compressible lines, then
    // rewrite them in place with incompressible contents. The in-place
    // growth path must evict back under budget (found by
    // morc_check --kv).
    kv::TieredStore ts(tinyTiers());
    std::vector<Addr> addrs;
    for (Addr a = 0x40; a < 0x40 * 600; a += 0x40)
        addrs.push_back(a);
    for (Addr a : addrs)
        ts.fetch(a, zeroLine());
    ASSERT_TRUE(ts.audit().ok()) << ts.audit().str();
    for (Addr a : addrs) {
        ts.writeback(a, noisyLine(a));
        const check::AuditReport r = ts.audit();
        ASSERT_TRUE(r.ok()) << r.str();
    }
}

TEST(KvTieredStore, SnapshotRoundTripsToIdenticalBytes)
{
    kv::TieredStore ts(tinyTiers());
    Rng rng(5);
    for (int i = 0; i < 3000; i++) {
        const Addr a = (rng.uniform() < 0.3 ? 0x40 * (i % 64)
                                            : 0x40 * (1000 + i));
        if (rng.chance(0.25))
            ts.writeback(a, noisyLine(i));
        else
            ts.fetch(a, noisyLine(i));
    }
    ASSERT_TRUE(ts.audit().ok()) << ts.audit().str();

    snap::Serializer s;
    ts.saveState(s);
    const std::vector<std::uint8_t> frame = s.frame();

    kv::TieredStore twin(tinyTiers());
    snap::Deserializer d(frame);
    twin.restoreState(d);
    ASSERT_TRUE(d.ok()) << d.error();
    ASSERT_TRUE(twin.audit().ok()) << twin.audit().str();

    snap::Serializer s2;
    twin.saveState(s2);
    EXPECT_EQ(s2.frame(), frame);
    EXPECT_EQ(twin.stats().writebacks, ts.stats().writebacks);
}

// ------------------------------------------------------------------
// Service
// ------------------------------------------------------------------

kv::ServiceConfig
smallService(sim::Scheme scheme)
{
    kv::ServiceConfig cfg;
    cfg.scheme = scheme;
    cfg.frontBytes = 64 * 1024;
    cfg.tier.dramBytes = 128 * 1024;
    cfg.tier.ssdBytes = 512 * 1024;
    cfg.seed = 21;
    cfg.values.seed = 0xabcd;
    cfg.telemetryEpoch = 50'000;
    kv::TenantConfig a;
    a.name = "a";
    a.keys = 512;
    a.theta = 1.1;
    a.weight = 2;
    a.setFrac = 0.3;
    a.driftPeriod = 200;
    a.driftStride = 13;
    kv::TenantConfig b;
    b.name = "b";
    b.keys = 1024;
    b.theta = 0.8;
    b.weight = 1;
    b.setFrac = 0.1;
    cfg.tenants = {a, b};
    return cfg;
}

TEST(KvService, RunsAuditCleanAndCountsAddUp)
{
    kv::Service svc(smallService(sim::Scheme::Morc));
    svc.run(3000);
    const check::AuditReport r = svc.audit();
    ASSERT_TRUE(r.ok()) << r.str();
    EXPECT_EQ(svc.requests(), 3000u);
    EXPECT_EQ(svc.tenantStats(0).requests, 2000u);
    EXPECT_EQ(svc.tenantStats(1).requests, 1000u);
    EXPECT_EQ(svc.latency().total(), 3000u);
    EXPECT_GT(svc.cycles(), 0u);
    EXPECT_FALSE(svc.series().empty());

    const double p50 = kv::histPercentile(svc.latency(), 0.50);
    const double p99 = kv::histPercentile(svc.latency(), 0.99);
    const double p999 = kv::histPercentile(svc.latency(), 0.999);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_GT(p50, 0.0);
}

TEST(KvService, MidRunSnapshotReplaysToIdenticalFinalBytes)
{
    const kv::ServiceConfig cfg = smallService(sim::Scheme::Morc);
    kv::Service svc(cfg);
    svc.run(2000);

    snap::Serializer s;
    svc.saveState(s);
    const std::vector<std::uint8_t> frame = s.frame();
    // FNV-1a of the frame pins the snapshot layout itself, not only
    // its round trip.
    std::uint64_t digest = 1469598103934665603ull;
    for (const std::uint8_t b : frame)
        digest = (digest ^ b) * 1099511628211ull;
    EXPECT_EQ(digest, 0xb7e01fb5b8a6b9deull);

    kv::Service twin(cfg);
    snap::Deserializer d(frame);
    twin.restoreState(d);
    ASSERT_TRUE(d.ok()) << d.error();
    ASSERT_TRUE(twin.audit().ok()) << twin.audit().str();
    EXPECT_EQ(twin.requests(), 2000u);
    EXPECT_EQ(twin.cycles(), svc.cycles());

    // Lockstep replay of the rest of the stream.
    for (int i = 0; i < 2000; i++) {
        const kv::Service::Reply a = svc.step();
        const kv::Service::Reply b = twin.step();
        ASSERT_EQ(a.req.key, b.req.key);
        ASSERT_EQ(a.req.tenant, b.req.tenant);
        ASSERT_EQ(a.digest, b.digest);
        ASSERT_EQ(a.latency, b.latency);
    }
    snap::Serializer sa, sb;
    svc.saveState(sa);
    twin.saveState(sb);
    EXPECT_EQ(sa.frame(), sb.frame());
}

TEST(KvService, HistPercentileSemantics)
{
    stats::Histogram h({10, 20, 30});
    EXPECT_EQ(kv::histPercentile(h, 0.5), 0.0); // empty
    for (int i = 0; i < 50; i++)
        h.record(5); // bucket 0
    for (int i = 0; i < 49; i++)
        h.record(15); // bucket 1
    h.record(1000); // overflow
    EXPECT_EQ(kv::histPercentile(h, 0.50), 10.0);
    EXPECT_EQ(kv::histPercentile(h, 0.99), 20.0);
    EXPECT_EQ(kv::histPercentile(h, 0.999), 60.0); // 2x last bound
}

} // namespace
} // namespace morc
