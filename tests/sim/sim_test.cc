/**
 * @file
 * Tests for the simulation layer: L1, memory channel, energy model, and
 * end-to-end system runs (including full-hierarchy functional checks).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "energy/energy.hh"
#include "sim/l1.hh"
#include "sim/memchannel.hh"
#include "sim/system.hh"
#include "telemetry/telemetry.hh"

namespace morc {
namespace sim {
namespace {

// --------------------------------------------------------------------- L1

TEST(L1, HitAfterFill)
{
    L1Cache l1;
    CacheLine data;
    data.setWord32(0, 99);
    EXPECT_FALSE(l1.lookup(0x100));
    l1.fill(0x100, data, false);
    EXPECT_TRUE(l1.lookup(0x100));
    EXPECT_EQ(l1.peek(0x100)->word32(0), 99u);
}

TEST(L1, VictimCarriesDirtyData)
{
    L1Cache l1(256, 1); // 4 sets, direct-mapped
    CacheLine a, b;
    a.setWord32(0, 1);
    b.setWord32(0, 2);
    l1.fill(0x1000, a, true);
    // Find a conflicting address by probing fills until 0x1000 leaves.
    bool displaced = false;
    for (Addr addr = 0; addr < (1 << 16) && !displaced; addr += kLineSize) {
        if (addr == 0x1000)
            continue;
        auto v = l1.fill(addr, b, false);
        if (v && v->addr == 0x1000) {
            EXPECT_TRUE(v->dirty);
            EXPECT_EQ(v->data.word32(0), 1u);
            displaced = true;
        }
    }
    EXPECT_TRUE(displaced);
}

TEST(L1, UpdateMarksDirty)
{
    L1Cache l1(256, 4);
    CacheLine a;
    l1.fill(0x40, a, false);
    CacheLine b;
    b.setWord32(3, 7);
    l1.update(0x40, b);
    // Force eviction of everything; the victim for 0x40 must be dirty.
    bool seen = false;
    for (Addr addr = 0x10000; addr < 0x20000; addr += kLineSize) {
        auto v = l1.fill(addr, a, false);
        if (v && v->addr == 0x40) {
            EXPECT_TRUE(v->dirty);
            EXPECT_EQ(v->data.word32(3), 7u);
            seen = true;
            break;
        }
    }
    EXPECT_TRUE(seen);
}

TEST(L1, DirtyBytesComeFromTheOwner)
{
    L1Cache l1(256, 1); // 4 sets, direct-mapped
    CacheLine clean;
    clean.setWord32(0, 5);
    l1.fill(0x00, clean, false);
    l1.markDirty(0x00); // store hit
    EXPECT_FALSE(l1.fillDirty(0x40)); // store miss into an empty set
    l1.fill(0x80, clean, false);
    EXPECT_EQ(l1.peek(0x00), nullptr); // a dirty line's bytes are not held
    EXPECT_EQ(l1.peek(0x80)->word32(0), 5u);

    // A snapshot copy holds the owner's bytes in its dirty ways only.
    L1Cache copy = l1.withDirtyBytes([](Addr addr) {
        CacheLine l;
        l.setWord32(0, static_cast<std::uint32_t>(addr) + 1);
        return l;
    });
    const std::pair<Addr, std::uint32_t> expect[] = {
        {0x00, 0x01}, {0x40, 0x41}, {0x80, 5}};
    for (const auto &[addr, word] : expect) {
        const auto v = copy.fill(addr + 0x100, clean, false);
        ASSERT_TRUE(v);
        EXPECT_EQ(v->addr, addr);
        EXPECT_EQ(v->dirty, addr != 0x80);
        EXPECT_EQ(v->data.word32(0), word);
    }
}

// ---------------------------------------------------------------- Channel

TEST(Channel, UncontendedLatency)
{
    MemoryChannel ch(100e6, 2e9, 70); // 20 cycles/byte
    const Cycles lat = ch.readAccess(1000);
    // 70 access + 64 * 20 occupancy.
    EXPECT_EQ(lat, 70u + 64u * 20u);
}

TEST(Channel, QueueingDelaysLaterRequests)
{
    MemoryChannel ch(100e6, 2e9, 70);
    const Cycles first = ch.readAccess(0);
    const Cycles second = ch.readAccess(0); // same instant: queues
    EXPECT_GT(second, first);
}

TEST(Channel, WritesConsumeBandwidth)
{
    MemoryChannel ch(100e6, 2e9, 70);
    ch.writeAccess(0);
    const Cycles lat = ch.readAccess(0);
    EXPECT_GT(lat, 70u + 64u * 20u); // queued behind the write
    EXPECT_EQ(ch.writes(), 1u);
    EXPECT_EQ(ch.bytesTransferred(), 128u);
}

TEST(Channel, HigherBandwidthLowersLatency)
{
    MemoryChannel slow(100e6, 2e9, 70);
    MemoryChannel fast(1600e6, 2e9, 70);
    EXPECT_GT(slow.readAccess(0), fast.readAccess(0));
}

// ----------------------------------------------------------------- Energy

TEST(Energy, Table1Published)
{
    const auto &t1 = energy::table1();
    ASSERT_EQ(t1.size(), 6u);
    EXPECT_DOUBLE_EQ(t1[0].joules, 2e-12);
    EXPECT_DOUBLE_EQ(t1[5].joules, 9.35e-9);
    // DDR3 access is ~4675x a 64b comparison (the paper's "Scale").
    EXPECT_NEAR(t1[5].joules / t1[0].joules, 4675.0, 1.0);
}

TEST(Energy, BreakdownIntegration)
{
    energy::EnergyEvents ev;
    ev.cycles = 2'000'000'000; // one second at 2 GHz
    ev.dramAccesses = 1000;
    ev.l1Accesses = 1000;
    ev.llcAccesses = 1000;
    ev.linesCompressed = 100;
    ev.linesDecompressed = 100;
    const auto b = energy::integrate(ev, energy::Engine::Lbe);
    EXPECT_NEAR(b.staticJ, 7e-3 + 20e-3 + 10.9e-3, 1e-6);
    EXPECT_NEAR(b.dramJ, 1000 * 74.8e-9, 1e-12);
    EXPECT_NEAR(b.compJ, 100 * 200e-12, 1e-15);
    EXPECT_NEAR(b.decompJ, 100 * 150e-12, 1e-15);
    EXPECT_GT(b.total(), b.staticJ);
}

TEST(Energy, EngineSelection)
{
    energy::EnergyEvents ev;
    ev.linesCompressed = 1;
    const auto none = energy::integrate(ev, energy::Engine::None);
    const auto cpack = energy::integrate(ev, energy::Engine::CPack);
    const auto lbe = energy::integrate(ev, energy::Engine::Lbe);
    EXPECT_EQ(none.compJ, 0.0);
    EXPECT_LT(cpack.compJ, lbe.compJ);
}

// ----------------------------------------------------------------- System

SystemConfig
smallConfig(Scheme s)
{
    SystemConfig cfg;
    cfg.scheme = s;
    cfg.numCores = 1;
    cfg.ratioSampleInterval = 100'000;
    cfg.checkFunctional = true;
    return cfg;
}

TEST(System, FunctionalAcrossSchemes)
{
    // checkFunctional aborts on any data mismatch anywhere in the
    // hierarchy; surviving the run is the assertion.
    for (Scheme s : {Scheme::Uncompressed, Scheme::Adaptive,
                     Scheme::Decoupled, Scheme::Sc2, Scheme::Morc,
                     Scheme::MorcMerged}) {
        System sys(smallConfig(s), {trace::findBenchmark("gcc")});
        const RunResult r = sys.run(300'000);
        EXPECT_GE(r.totalInstructions, 300'000u) << schemeName(s);
        EXPECT_GT(r.cores[0].ipc(), 0.0) << schemeName(s);
    }
}

TEST(System, MemoryTrafficIsConserved)
{
    // Memory keeps no bytes, so its traffic counts are what pin the
    // miss and write-back paths: every LLC miss reads memory once and
    // every LLC victim write-back writes it once, flat and meshed.
    const std::vector<trace::BenchmarkSpec> progs = {
        trace::findBenchmark("gcc"), trace::findBenchmark("mcf"),
        trace::findBenchmark("astar"), trace::findBenchmark("soplex")};
    for (const SchemeInfo &info : allSchemes()) {
        for (const bool mesh : {false, true}) {
            for (const bool inclusive : {false, true}) {
                SystemConfig cfg;
                cfg.scheme = info.scheme;
                cfg.numCores = 4;
                cfg.llcBytesPerCore = 16 * 1024;
                cfg.ratioSampleInterval = 50'000;
                cfg.inclusiveWriteFills = inclusive;
                cfg.useMesh = mesh;
                cfg.meshCfg.width = 2;
                cfg.meshCfg.height = 2;
                System sys(cfg, progs);
                const RunResult r = sys.run(20'000, 10'000);
                std::uint64_t misses = 0;
                for (const auto &c : r.cores)
                    misses += c.llcMisses;
                const std::string what = std::string(info.name) +
                                         (mesh ? " mesh" : " flat") +
                                         (inclusive ? " inclusive" : "");
                EXPECT_EQ(r.memReads, misses) << what;
                EXPECT_EQ(r.memWrites, r.llcStats.victimWritebacks) << what;
                EXPECT_GT(r.memWrites, 0u) << what;
            }
        }
    }
}

TEST(System, MorcCompressesBetterThanBaselines)
{
    auto ratio = [](Scheme s) {
        SystemConfig cfg = smallConfig(s);
        cfg.checkFunctional = false;
        System sys(cfg, {trace::findBenchmark("gcc")});
        return sys.run(1'000'000).compressionRatio;
    };
    const double unc = ratio(Scheme::Uncompressed);
    const double adaptive = ratio(Scheme::Adaptive);
    const double morc = ratio(Scheme::Morc);
    EXPECT_LE(unc, 1.01);
    EXPECT_GT(morc, adaptive);
    EXPECT_GT(morc, 2.0);
}

TEST(System, CompressionReducesBandwidth)
{
    auto traffic = [](Scheme s) {
        SystemConfig cfg = smallConfig(s);
        cfg.checkFunctional = false;
        System sys(cfg, {trace::findBenchmark("gcc")});
        return sys.run(1'000'000).gbPerBillionInstr();
    };
    EXPECT_LT(traffic(Scheme::Morc), traffic(Scheme::Uncompressed));
}

TEST(System, MultiCoreSharedLlc)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Morc;
    cfg.numCores = 4;
    cfg.checkFunctional = true;
    cfg.ratioSampleInterval = 200'000;
    std::vector<trace::BenchmarkSpec> programs(
        4, trace::findBenchmark("gcc"));
    System sys(cfg, programs);
    const RunResult r = sys.run(100'000);
    ASSERT_EQ(r.cores.size(), 4u);
    for (const auto &c : r.cores)
        EXPECT_GE(c.instructions, 100'000u);
    EXPECT_GT(r.compressionRatio, 1.0);
}

TEST(System, BandwidthScalingChangesIpc)
{
    auto ipc_at = [](double bw) {
        SystemConfig cfg;
        cfg.scheme = Scheme::Uncompressed;
        cfg.bandwidthPerCore = bw;
        System sys(cfg, {trace::findBenchmark("mcf")});
        return sys.run(500'000).cores[0].ipc();
    };
    EXPECT_GT(ipc_at(1600e6), ipc_at(12.5e6) * 1.5);
}

TEST(System, ThroughputModelHidesLatency)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Uncompressed;
    System sys(cfg, {trace::findBenchmark("povray")});
    const RunResult r = sys.run(500'000);
    // Compute-bound workload: most latency is hidden by 4 threads.
    EXPECT_GT(r.cores[0].throughput(), r.cores[0].ipc());
}

TEST(System, InclusiveModeRaisesInvalidFraction)
{
    auto invalid = [](bool inclusive) {
        SystemConfig cfg;
        cfg.scheme = Scheme::Morc;
        cfg.useMorcOverride = true;
        cfg.morc.compressionEnabled = false; // Figure 12 methodology
        cfg.inclusiveWriteFills = inclusive;
        System sys(cfg, {trace::findBenchmark("gcc")});
        return sys.run(1'000'000).invalidLineFraction;
    };
    EXPECT_GE(invalid(true), invalid(false));
}

TEST(System, EnergyBreakdownPopulated)
{
    SystemConfig cfg = smallConfig(Scheme::Morc);
    cfg.checkFunctional = false;
    System sys(cfg, {trace::findBenchmark("astar")});
    const RunResult r = sys.run(500'000);
    EXPECT_GT(r.energyBreakdown.staticJ, 0.0);
    EXPECT_GT(r.energyBreakdown.dramJ, 0.0);
    EXPECT_GT(r.energyBreakdown.decompJ, 0.0);
    EXPECT_GT(r.energyBreakdown.total(), 0.0);
}

/** Every probe @p llc publishes under "llc", read now. */
std::vector<telemetry::Series>
llcProbes(cache::Llc &llc)
{
    telemetry::Registry reg(1);
    llc.registerProbes(reg, "llc");
    reg.advanceTo(1);
    return reg.snapshot().series;
}

TEST(System, WarmupZeroesEveryPublishedCounter)
{
    // A measured series counts from the counters' values at warm-up's
    // end, so each must read zero there, a scheme's own counters
    // included. A cold twin that measures the same window shows that
    // the counter each case names counted events in it.
    const std::pair<Scheme, std::string> cases[] = {
        {Scheme::Touche, "llc.recompactions"},
        {Scheme::Morc, "llc.log_reuses"},
    };
    constexpr std::uint64_t kWarmup = 300'000;
    for (const auto &[scheme, probe] : cases) {
        SystemConfig cfg = smallConfig(scheme);
        cfg.checkFunctional = false;
        System cold(cfg, {trace::findBenchmark("gobmk")});
        cold.measure(kWarmup);
        bool counted = false;
        for (const auto &s : llcProbes(cold.llc()))
            counted |= s.name == probe && s.values[0] > 0.0;
        EXPECT_TRUE(counted) << probe << " counts nothing in warm-up";

        System warm(cfg, {trace::findBenchmark("gobmk")});
        warm.warmup(kWarmup);
        for (const auto &s : llcProbes(warm.llc())) {
            if (s.kind == telemetry::ProbeKind::Counter) {
                EXPECT_EQ(s.values[0], 0.0) << schemeName(scheme) << " "
                                            << s.name;
            }
        }
    }
}

TEST(System, BankedMorcPublishesTheFlatCatalog)
{
    SystemConfig cfg = smallConfig(Scheme::Morc);
    System flat(cfg, {trace::findBenchmark("gcc")});
    cfg.useMesh = true;
    cfg.numCores = 4;
    cfg.meshCfg.width = 2;
    cfg.meshCfg.height = 2;
    System banked(cfg, std::vector(4, trace::findBenchmark("gcc")));
    std::vector<std::string> want, got;
    for (const auto &s : llcProbes(flat.llc()))
        want.push_back(s.name);
    for (const auto &s : llcProbes(banked.llc()))
        got.push_back(s.name);
    EXPECT_EQ(std::count(want.begin(), want.end(), "llc.log_reuses"), 1);
    EXPECT_EQ(got, want);
}

TEST(System, Uncompressed8xIsLarger)
{
    SystemConfig cfg = smallConfig(Scheme::Uncompressed8x);
    cfg.checkFunctional = false;
    System sys(cfg, {trace::findBenchmark("gcc")});
    EXPECT_EQ(sys.llc().capacityBytes(), 8u * 128u * 1024u);
}

} // namespace
} // namespace sim
} // namespace morc
