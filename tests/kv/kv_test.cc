/**
 * @file
 * Unit and snapshot tests for the KV serving subsystem (src/kv).
 *
 * Covers each layer in isolation — generator QoS arithmetic and drift,
 * value-model purity/versioning/snapshot, tiered-store exclusivity,
 * budget enforcement (including the writeback-growth path where a
 * rewrite compresses worse than what it replaced), the tiered store in
 * lockstep with a two-map reference of the same policy, hostile tier
 * snapshots — and the acceptance
 * criterion end to end: a mid-run service snapshot restores into a
 * twin that replays the rest of the stream to byte-identical final
 * serialized state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "compress/fpc.hh"
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

/** One tier line as a KVTS frame holds it. */
struct TierRow
{
    Addr addr;
    std::uint32_t bytes;
    std::uint64_t use;
};

/** A TieredStore snapshot in the KVTS layout: the clock, the stats,
 *  then each tier's lines in the order given. */
std::vector<std::uint8_t>
kvtsFrame(std::uint64_t clock, const kv::TierStats &stats,
          const std::vector<TierRow> &dram, const std::vector<TierRow> &ssd)
{
    snap::Serializer s;
    s.beginSection("KVTS");
    s.u64(clock);
    stats.save(s);
    for (const std::vector<TierRow> *tier : {&dram, &ssd}) {
        s.u64(tier->size());
        for (const TierRow &r : *tier) {
            s.u64(r.addr);
            s.u32(r.bytes);
            s.u64(r.use);
        }
    }
    s.endSection();
    return s.frame();
}

/**
 * The tiered store as it was built on std::map: per tier an
 * address-ordered line map plus an LRU map keyed by stamp. Kept as the
 * oracle the slab/list/index TieredStore must match op for op.
 */
class MapTiers
{
  public:
    explicit MapTiers(const kv::TierConfig &cfg) : cfg_(cfg) {}

    kv::TieredStore::FetchResult
    fetch(Addr addr, const CacheLine &data)
    {
        if (const auto it = dram_.lines.find(addr); it != dram_.lines.end()) {
            touch(dram_, addr, it->second);
            stats_.dramHits++;
            return {cfg_.dramLatency, kv::TierLevel::Dram};
        }
        if (const auto is = ssd_.lines.find(addr); is != ssd_.lines.end()) {
            const Entry e = is->second;
            ssd_.lru.erase(e.use);
            ssd_.usedBytes -= charge(false, e.bytes);
            ssd_.lines.erase(is);
            stats_.ssdHits++;
            stats_.promotions++;
            insertInto(true, addr, e);
            return {cfg_.ssdLatency, kv::TierLevel::Ssd};
        }
        stats_.originFetches++;
        insertInto(true, addr, {sized(data), 0});
        return {cfg_.originLatency, kv::TierLevel::Origin};
    }

    void
    writeback(Addr addr, const CacheLine &data)
    {
        stats_.writebacks++;
        for (const bool dram : {true, false}) {
            Tier &t = dram ? dram_ : ssd_;
            const auto it = t.lines.find(addr);
            if (it == t.lines.end())
                continue;
            t.usedBytes -= charge(dram, it->second.bytes);
            it->second.bytes = sized(data);
            t.usedBytes += charge(dram, it->second.bytes);
            touch(t, addr, it->second);
            evictOver(dram);
            return;
        }
        insertInto(true, addr, {sized(data), 0});
    }

    std::vector<std::uint8_t>
    frame() const
    {
        std::vector<TierRow> rows[2];
        for (const bool dram : {true, false})
            for (const auto &[addr, e] : (dram ? dram_ : ssd_).lines)
                rows[dram ? 0 : 1].push_back({addr, e.bytes, e.use});
        return kvtsFrame(clock_, stats_, rows[0], rows[1]);
    }

    const kv::TierStats &stats() const { return stats_; }
    std::uint64_t lines(bool dram) const
    {
        return (dram ? dram_ : ssd_).lines.size();
    }
    std::uint64_t usedBytes(bool dram) const
    {
        return (dram ? dram_ : ssd_).usedBytes;
    }

  private:
    struct Entry
    {
        std::uint32_t bytes;
        std::uint64_t use;
    };
    struct Tier
    {
        std::map<Addr, Entry> lines;
        std::map<std::uint64_t, Addr> lru;
        std::uint64_t usedBytes = 0;
    };

    static std::uint32_t
    sized(const CacheLine &data)
    {
        return std::clamp<std::uint32_t>(
            (comp::Fpc::lineBits(data) + 7) / 8, 1, kLineSize);
    }

    std::uint64_t
    charge(bool dram, std::uint32_t bytes) const
    {
        return (dram ? cfg_.dramCompressed : cfg_.ssdCompressed)
                   ? bytes
                   : kLineSize;
    }

    void
    touch(Tier &t, Addr addr, Entry &e)
    {
        t.lru.erase(e.use);
        e.use = ++clock_;
        t.lru[e.use] = addr;
    }

    void
    insertInto(bool dram, Addr addr, Entry e)
    {
        Tier &t = dram ? dram_ : ssd_;
        e.use = ++clock_;
        t.lines[addr] = e;
        t.lru[e.use] = addr;
        t.usedBytes += charge(dram, e.bytes);
        evictOver(dram);
    }

    void
    evictOver(bool dram)
    {
        Tier &t = dram ? dram_ : ssd_;
        const std::uint64_t budget = dram ? cfg_.dramBytes : cfg_.ssdBytes;
        while (t.usedBytes > budget && !t.lru.empty()) {
            const Addr va = t.lru.begin()->second;
            const Entry ve = t.lines[va];
            t.lru.erase(t.lru.begin());
            t.lines.erase(va);
            t.usedBytes -= charge(dram, ve.bytes);
            if (dram) {
                stats_.demotions++;
                insertInto(false, va, ve);
            } else {
                stats_.ssdDrops++;
            }
        }
    }

    kv::TierConfig cfg_;
    Tier dram_;
    Tier ssd_;
    std::uint64_t clock_ = 0;
    kv::TierStats stats_;
};

/** Zero, small and random 32-bit words, so FPC sizes spread over
 *  [1, 64] bytes. */
CacheLine
mixedLine(Rng &rng)
{
    CacheLine l;
    const double zero = rng.uniform();
    for (unsigned w = 0; w < kWordsPerLine; w++) {
        if (rng.chance(zero))
            continue;
        l.setWord32(w, rng.chance(0.5)
                           ? static_cast<std::uint32_t>(rng.below(200))
                           : static_cast<std::uint32_t>(rng.next()));
    }
    return l;
}

std::vector<std::uint8_t>
tierFrame(const kv::TieredStore &ts)
{
    snap::Serializer s;
    ts.saveState(s);
    return s.frame();
}

TEST(KvTieredStore, MatchesTheTwoMapDesignInLockstep)
{
    // Budgets small enough that both tiers evict; half way through the
    // store round-trips through a snapshot and carries on restored.
    for (const bool ssd_compressed : {true, false}) {
        kv::TierConfig cfg;
        cfg.dramBytes = 2 * 1024;
        cfg.ssdBytes = 8 * 1024;
        cfg.ssdCompressed = ssd_compressed;
        MapTiers ref(cfg);
        auto ts = std::make_unique<kv::TieredStore>(cfg);
        Rng rng(ssd_compressed ? 31 : 32);
        const int ops = 30000;
        for (int i = 0; i < ops; i++) {
            if (i == ops / 2) {
                auto twin = std::make_unique<kv::TieredStore>(cfg);
                snap::Deserializer d(tierFrame(*ts));
                twin->restoreState(d);
                ASSERT_TRUE(d.ok()) << d.error();
                ts = std::move(twin);
            }
            // A hot range that keeps coming back, over a wide cold one.
            const Addr a = 0x40 * (rng.chance(0.5) ? rng.below(96)
                                                   : 96 + rng.below(900));
            const CacheLine data =
                rng.chance(0.3) ? zeroLine() : mixedLine(rng);
            if (rng.chance(0.35)) {
                ts->writeback(a, data);
                ref.writeback(a, data);
            } else {
                const kv::TieredStore::FetchResult got = ts->fetch(a, data);
                const kv::TieredStore::FetchResult want = ref.fetch(a, data);
                ASSERT_EQ(got.level, want.level) << "op " << i;
                ASSERT_EQ(got.latency, want.latency) << "op " << i;
            }
            const kv::TierStats &g = ts->stats();
            const kv::TierStats &w = ref.stats();
            ASSERT_EQ(g.dramHits, w.dramHits) << "op " << i;
            ASSERT_EQ(g.ssdHits, w.ssdHits) << "op " << i;
            ASSERT_EQ(g.originFetches, w.originFetches) << "op " << i;
            ASSERT_EQ(g.promotions, w.promotions) << "op " << i;
            ASSERT_EQ(g.demotions, w.demotions) << "op " << i;
            ASSERT_EQ(g.ssdDrops, w.ssdDrops) << "op " << i;
            ASSERT_EQ(g.writebacks, w.writebacks) << "op " << i;
            ASSERT_EQ(ts->dramUsedBytes(), ref.usedBytes(true)) << "op " << i;
            ASSERT_EQ(ts->ssdUsedBytes(), ref.usedBytes(false)) << "op " << i;
            ASSERT_EQ(ts->dramLines(), ref.lines(true)) << "op " << i;
            ASSERT_EQ(ts->ssdLines(), ref.lines(false)) << "op " << i;
        }
        ASSERT_TRUE(ts->audit().ok()) << ts->audit().str();
        EXPECT_GT(ts->stats().ssdHits, 0u);
        EXPECT_GT(ts->stats().ssdDrops, 0u);
        EXPECT_EQ(tierFrame(*ts), ref.frame());
    }
}

bool
tiersRestore(const std::vector<std::uint8_t> &frame)
{
    kv::TieredStore ts(tinyTiers());
    snap::Deserializer d(frame);
    ts.restoreState(d);
    if (d.ok()) {
        EXPECT_TRUE(ts.audit().ok()) << ts.audit().str();
    }
    return d.ok();
}

TEST(KvTieredStore, RestoreRejectsHostileFrames)
{
    const kv::TierStats stats;
    const std::vector<TierRow> dram = {{0x40, 10, 3}, {0x80, 64, 1}};
    const std::vector<TierRow> ssd = {{0xc0, 5, 2}};
    // The well-formed frame restores and saves back to the same bytes.
    const std::vector<std::uint8_t> good = kvtsFrame(3, stats, dram, ssd);
    {
        kv::TieredStore ts(tinyTiers());
        snap::Deserializer d(good);
        ts.restoreState(d);
        ASSERT_TRUE(d.ok()) << d.error();
        EXPECT_EQ(tierFrame(ts), good);
    }
    // Two lines of one tier with one stamp.
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, {{0x40, 10, 3}, {0x80, 64, 3}}, ssd)));
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, dram, {{0xc0, 5, 2}, {0x100, 5, 2}})));
    // Addresses out of order, or repeated.
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, {{0x80, 64, 1}, {0x40, 10, 3}}, ssd)));
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, {{0x40, 10, 1}, {0x40, 10, 3}}, ssd)));
    // A stamp the saved clock never handed out.
    EXPECT_FALSE(tiersRestore(kvtsFrame(2, stats, dram, ssd)));
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, dram, {{0xc0, 5, 4}})));
    // A stored size no line compresses to.
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, {{0x40, 0, 3}, {0x80, 64, 1}}, ssd)));
    EXPECT_FALSE(tiersRestore(
        kvtsFrame(3, stats, {{0x40, 65, 3}, {0x80, 64, 1}}, ssd)));
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
    EXPECT_EQ(digest, 0x7e3d466701358cb1ull);

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
