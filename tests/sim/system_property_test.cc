/**
 * @file
 * System-level property tests: bandwidth caps, warm-up semantics,
 * cross-scheme functional sweeps, and trace-locality properties that
 * the architecture results depend on.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/system.hh"

namespace morc {
namespace sim {
namespace {

// ---------------------------------------------------- bandwidth property

TEST(SystemProperty, ChannelNeverExceedsBandwidthCap)
{
    // Measured bytes per cycle must never exceed the configured cap
    // (the central constraint of the paper's evaluation).
    SystemConfig cfg;
    cfg.scheme = Scheme::Uncompressed;
    cfg.bandwidthPerCore = 100e6; // 0.05 B/cycle at 2 GHz
    System sys(cfg, {trace::findBenchmark("mcf")});
    const RunResult r = sys.run(400'000);
    const double bytes =
        static_cast<double>((r.memReads + r.memWrites) * kLineSize);
    const double bytes_per_cycle =
        bytes / static_cast<double>(r.completionCycles);
    EXPECT_LE(bytes_per_cycle, 100e6 / 2e9 * 1.02);
}

TEST(SystemProperty, WarmupIsExcludedFromMeasurement)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Uncompressed;
    System sys(cfg, {trace::findBenchmark("gcc")});
    const RunResult r = sys.run(100'000, 300'000);
    // Counters reflect only the measured phase.
    EXPECT_GE(r.totalInstructions, 100'000u);
    EXPECT_LT(r.totalInstructions, 200'000u);
    EXPECT_EQ(r.cores[0].instructions, r.totalInstructions);
}

TEST(SystemProperty, WarmupImprovesHitRate)
{
    auto hit_rate = [](std::uint64_t warmup) {
        SystemConfig cfg;
        cfg.scheme = Scheme::Uncompressed;
        System sys(cfg, {trace::findBenchmark("gobmk")});
        const RunResult r = sys.run(200'000, warmup);
        const auto &c = r.cores[0];
        return static_cast<double>(c.llcHits) /
               static_cast<double>(c.llcHits + c.llcMisses);
    };
    EXPECT_GT(hit_rate(600'000), hit_rate(0));
}

TEST(SystemProperty, DeterministicAcrossRuns)
{
    auto once = [] {
        SystemConfig cfg;
        cfg.scheme = Scheme::Morc;
        System sys(cfg, {trace::findBenchmark("astar")});
        return sys.run(200'000, 100'000);
    };
    const RunResult a = once();
    const RunResult b = once();
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.completionCycles, b.completionCycles);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_DOUBLE_EQ(a.compressionRatio, b.compressionRatio);
}

TEST(SystemProperty, MorcLosesIpcAtAbundantBandwidth)
{
    // Figure 10's qualitative claim: with plenty of bandwidth, paying
    // decompression latency can cost single-stream IPC.
    auto ipc = [](Scheme s) {
        SystemConfig cfg;
        cfg.scheme = s;
        cfg.bandwidthPerCore = 1600e6;
        System sys(cfg, {trace::findBenchmark("povray")});
        return sys.run(400'000, 400'000).cores[0].ipc();
    };
    EXPECT_LT(ipc(Scheme::Morc), ipc(Scheme::Uncompressed) * 1.02);
}

TEST(SystemProperty, EnergyScalesWithDram)
{
    // A bandwidth-hungry workload spends most memory-system energy in
    // DRAM; compression that removes accesses must reduce total energy.
    auto dram_j = [](Scheme s) {
        SystemConfig cfg;
        cfg.scheme = s;
        System sys(cfg, {trace::findBenchmark("gcc")});
        return sys.run(400'000, 800'000).energyBreakdown;
    };
    const auto base = dram_j(Scheme::Uncompressed);
    const auto morc = dram_j(Scheme::Morc);
    EXPECT_LT(morc.dramJ, base.dramJ);
    EXPECT_GT(morc.decompJ, base.decompJ);
}

TEST(SystemProperty, Uncompressed8xBeatsBaselineHitRate)
{
    auto misses = [](Scheme s) {
        SystemConfig cfg;
        cfg.scheme = s;
        System sys(cfg, {trace::findBenchmark("omnetpp")});
        return sys.run(300'000, 600'000).cores[0].llcMisses;
    };
    EXPECT_LT(misses(Scheme::Uncompressed8x),
              misses(Scheme::Uncompressed));
}

// --------------------------------------------- cross-scheme x workload

// The workload is a std::string, not a const char *: gtest prints a char
// pointer parameter with its address, and ctest's discovered test names
// carry that text, so they would change on every run under ASLR.
class SchemeWorkload
    : public ::testing::TestWithParam<std::tuple<Scheme, std::string>>
{};

TEST_P(SchemeWorkload, EndToEndFunctional)
{
    SystemConfig cfg;
    cfg.scheme = std::get<0>(GetParam());
    cfg.checkFunctional = true; // aborts on any wrong data
    cfg.ratioSampleInterval = 100'000;
    System sys(cfg, {trace::resolveWorkload(std::get<1>(GetParam()))});
    const RunResult r = sys.run(150'000, 150'000);
    EXPECT_GT(r.cores[0].ipc(), 0.0);
    EXPECT_GE(r.compressionRatio, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeWorkload,
    ::testing::Combine(::testing::Values(Scheme::Uncompressed,
                                         Scheme::Adaptive,
                                         Scheme::Decoupled, Scheme::Sc2,
                                         Scheme::Morc,
                                         Scheme::MorcMerged),
                       ::testing::Values("gcc", "mcf", "h264ref",
                                         "cactusADM", "povray")),
    [](const auto &info) {
        return std::string(schemeName(std::get<0>(info.param))) + "_" +
               std::get<1>(info.param);
    });

// --------------------------------------------------- trace properties

TEST(SystemProperty, InterleaveQuantumPreservesMorcLocality)
{
    // Coarser scheduling quanta keep per-core fill bursts contiguous at
    // the shared LLC, which MORC's log locality benefits from.
    auto ratio = [](unsigned quantum) {
        SystemConfig cfg;
        cfg.scheme = Scheme::Morc;
        cfg.numCores = 8;
        cfg.interleaveQuantum = quantum;
        cfg.ratioSampleInterval = 200'000;
        std::vector<trace::BenchmarkSpec> programs(
            8, trace::findBenchmark("gcc"));
        System sys(cfg, programs);
        return sys.run(60'000, 120'000).compressionRatio;
    };
    EXPECT_GT(ratio(256), ratio(1) * 1.02);
}

TEST(TraceProperty, BurstsProduceAdjacentMisses)
{
    // The spatial-locality property the tag codec depends on: a healthy
    // share of consecutive distinct lines are address-adjacent.
    auto spec = trace::findBenchmark("gcc");
    trace::ThreadTrace t(spec, 0);
    Addr prev = 0;
    unsigned adjacent = 0, distinct = 0;
    for (int i = 0; i < 200'000; i++) {
        const Addr ln = lineNumber(t.next().addr);
        if (ln == prev)
            continue;
        if (ln > prev ? ln - prev <= 2 : prev - ln <= 2)
            adjacent++;
        distinct++;
        prev = ln;
    }
    EXPECT_GT(static_cast<double>(adjacent) / distinct, 0.2);
}

TEST(TraceProperty, ReplicasShareValuesNotAddresses)
{
    // Sx mixes: two replicas of one benchmark produce identical data at
    // identical local offsets but disjoint physical addresses.
    auto spec = trace::findBenchmark("bzip2");
    trace::ThreadTrace a(spec, 0, 0), b(spec, 1, 1);
    EXPECT_NE(a.addrBase(), b.addrBase());
    EXPECT_EQ(a.values().line(1234, 0), b.values().line(1234, 0));
}

} // namespace
} // namespace sim
} // namespace morc
