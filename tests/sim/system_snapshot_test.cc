/**
 * @file
 * Whole-system checkpoint tests: for every cache scheme — flat,
 * merged-tag MORC, and the 4x4 banked-mesh substrate — a system saved
 * after warm-up and restored into a fresh instance must continue
 * *byte-identically*: the measured-window results match and the final
 * serialized states are equal down to the last bit. Plus rejection of
 * mismatched configs (every config field, each in the cold frame),
 * mismatched workloads, and corrupt files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "trace/value_model.hh"

namespace morc {
namespace sim {
namespace {

constexpr std::uint64_t kWarm = 60'000;
constexpr std::uint64_t kMeasure = 40'000;

std::vector<trace::BenchmarkSpec>
programs(unsigned n)
{
    const char *names[] = {"gcc", "mcf", "astar", "soplex"};
    std::vector<trace::BenchmarkSpec> out;
    for (unsigned i = 0; i < n; i++)
        out.push_back(trace::findBenchmark(names[i % 4]));
    return out;
}

std::vector<std::uint8_t>
stateBytes(const System &sys)
{
    snap::Serializer s;
    sys.saveState(s);
    return s.frame();
}

/** FNV-1a over a saved frame: pins the snapshot bytes themselves, so a
 *  save/restore refactor that round-trips but reorders, widens or drops
 *  a field still fails. */
std::uint64_t
frameDigest(const std::vector<std::uint8_t> &frame)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : frame) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** Expect that warm-up + snapshot + restore + measure reproduces a
 *  straight run() exactly, including the final serialized state, and
 *  that the warm frame hashes to @p digest. */
void
expectRoundTrip(const SystemConfig &cfg, unsigned ncores,
                std::uint64_t digest)
{
    const auto progs = programs(ncores);

    // Reference: uninterrupted run.
    System ref(cfg, progs);
    const RunResult want = ref.run(kMeasure, kWarm);

    // Checkpointed: warm, serialize, restore into a fresh system.
    System saver(cfg, progs);
    saver.warmup(kWarm);
    const std::vector<std::uint8_t> frame = stateBytes(saver);
    EXPECT_EQ(frameDigest(frame), digest);

    System restored(cfg, progs);
    snap::Deserializer d(frame);
    restored.restoreState(d);
    ASSERT_TRUE(d.ok()) << d.error();
    EXPECT_TRUE(restored.warmed());

    // The restored instance must serialize right back to the same
    // bytes before it runs anything.
    EXPECT_EQ(stateBytes(restored), frame);

    const RunResult got = restored.measure(kMeasure);
    EXPECT_EQ(got.totalInstructions, want.totalInstructions);
    EXPECT_EQ(got.completionCycles, want.completionCycles);
    EXPECT_EQ(got.memReads, want.memReads);
    EXPECT_EQ(got.memWrites, want.memWrites);
    EXPECT_EQ(got.llcStats, want.llcStats);
    EXPECT_EQ(got.compressionRatio, want.compressionRatio);
    ASSERT_EQ(got.cores.size(), want.cores.size());
    for (std::size_t i = 0; i < got.cores.size(); i++) {
        EXPECT_EQ(got.cores[i].cycles, want.cores[i].cycles);
        EXPECT_EQ(got.cores[i].llcMisses, want.cores[i].llcMisses);
        EXPECT_EQ(got.cores[i].stallCycles, want.cores[i].stallCycles);
    }

    // And after the measured window the two simulators are still in
    // exactly the same state.
    EXPECT_EQ(stateBytes(restored), stateBytes(ref));
}

SystemConfig
flatConfig(Scheme s)
{
    SystemConfig cfg;
    cfg.scheme = s;
    cfg.numCores = 2;
    cfg.llcBytesPerCore = 64 * 1024;
    cfg.ratioSampleInterval = 50'000;
    return cfg;
}

TEST(SystemSnapshot, Uncompressed)
{
    expectRoundTrip(flatConfig(Scheme::Uncompressed), 2,
                    0xbb6ee1dc4ef4028ull);
}

TEST(SystemSnapshot, Adaptive)
{
    expectRoundTrip(flatConfig(Scheme::Adaptive), 2, 0x16d042dca74d7defull);
}

TEST(SystemSnapshot, Decoupled)
{
    expectRoundTrip(flatConfig(Scheme::Decoupled), 2, 0x19b6f2eeada914ceull);
}

TEST(SystemSnapshot, Sc2)
{
    expectRoundTrip(flatConfig(Scheme::Sc2), 2, 0xdc167deac4443b6ull);
}

TEST(SystemSnapshot, Morc)
{
    expectRoundTrip(flatConfig(Scheme::Morc), 2, 0xad04700e199d3d54ull);
}

TEST(SystemSnapshot, MorcMerged)
{
    expectRoundTrip(flatConfig(Scheme::MorcMerged), 2, 0x9b513ba9de7c2596ull);
}

TEST(SystemSnapshot, OracleInter)
{
    expectRoundTrip(flatConfig(Scheme::OracleInter), 2, 0xf9046f55af8f5628ull);
}

TEST(SystemSnapshot, Uncompressed8x)
{
    expectRoundTrip(flatConfig(Scheme::Uncompressed8x), 2,
                    0x3dd6734be9abf29cull);
}

TEST(SystemSnapshot, OracleIntra)
{
    expectRoundTrip(flatConfig(Scheme::OracleIntra), 2, 0x5829620fbfe3784bull);
}

TEST(SystemSnapshot, Touche)
{
    expectRoundTrip(flatConfig(Scheme::Touche), 2, 0x32612d5d7fe0fff8ull);
}

TEST(SystemSnapshot, BankedMesh4x4)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Morc;
    cfg.numCores = 4;
    cfg.llcBytesPerCore = 64 * 1024;
    cfg.ratioSampleInterval = 50'000;
    cfg.useMesh = true;
    cfg.meshCfg.width = 4;
    cfg.meshCfg.height = 4;
    expectRoundTrip(cfg, 4, 0xb0855751d6ef8a6bull);
}

TEST(SystemSnapshot, WithTelemetryAndTrace)
{
    SystemConfig cfg = flatConfig(Scheme::Morc);
    cfg.telemetryEpoch = 10'000;
    cfg.traceEvents = true;
    expectRoundTrip(cfg, 2, 0xba3e2f3c18b98a2aull);
}

TEST(SystemSnapshot, WithAttachedHistograms)
{
    stats::Histogram decomp({64, 128, 256, 512});
    stats::Histogram lat({16, 32, 64});
    SystemConfig cfg = flatConfig(Scheme::Morc);
    cfg.decompressedBytesHistogram = &decomp;
    cfg.hitLatencyHistogram = &lat;

    System ref(cfg, programs(2));
    const RunResult want = ref.run(kMeasure, kWarm);
    const stats::Histogram refDecomp = decomp;

    decomp.clear();
    lat.clear();
    System saver(cfg, programs(2));
    saver.warmup(kWarm);
    const auto frame = stateBytes(saver);
    EXPECT_EQ(frameDigest(frame), 0x142b7b8b7b8dc5e9ull);

    decomp.clear();
    lat.clear();
    System restored(cfg, programs(2));
    snap::Deserializer d(frame);
    restored.restoreState(d);
    ASSERT_TRUE(d.ok()) << d.error();
    const RunResult got = restored.measure(kMeasure);
    EXPECT_EQ(got.completionCycles, want.completionCycles);
    EXPECT_EQ(decomp.total(), refDecomp.total());
}

TEST(SystemSnapshot, KvValueModelKnobsRoundTrip)
{
    // The KV value synthesizer carries mutable state (per-key SET
    // versions) *and* the redundancy knobs that shape the data those
    // versions address; both must ride a snapshot so a restored KV run
    // synthesizes byte-identical payloads.
    trace::KvProfile p;
    p.seed = 77;
    p.jsonFrac = 0.6;
    p.counterFrac = 0.2;
    p.jsonLines = 3;
    p.blobLines = 5;
    p.tokenPoolSize = 48;
    p.tokenTheta = 1.3;
    p.setChurn = 0.45;
    trace::KvValueModel vm(p);
    for (std::uint64_t k = 0; k < 64; k += 3)
        vm.bump(k);

    snap::Serializer s;
    vm.save(s);
    const auto frame = s.frame();

    trace::KvValueModel twin{trace::KvProfile{}}; // default knobs
    snap::Deserializer d(frame);
    twin.restore(d);
    ASSERT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(twin.profile().seed, p.seed);
    EXPECT_EQ(twin.profile().jsonLines, p.jsonLines);
    EXPECT_EQ(twin.profile().tokenPoolSize, p.tokenPoolSize);
    EXPECT_EQ(twin.profile().tokenTheta, p.tokenTheta);
    EXPECT_EQ(twin.profile().setChurn, p.setChurn);
    EXPECT_EQ(twin.dirtyKeys(), vm.dirtyKeys());
    for (std::uint64_t k = 0; k < 64; k++) {
        ASSERT_EQ(twin.version(k), vm.version(k));
        for (std::uint32_t i = 0; i < vm.valueLines(k); i++)
            ASSERT_TRUE(vm.line(k, i, vm.version(k)) ==
                        twin.line(k, i, twin.version(k)));
    }

    // Re-serializing the twin reproduces the same bytes, and a
    // tampered frame is rejected.
    snap::Serializer s2;
    twin.save(s2);
    EXPECT_EQ(s2.frame(), frame);
    auto bad = frame;
    bad[bad.size() / 2] ^= 0x20;
    trace::KvValueModel victim{trace::KvProfile{}};
    snap::Deserializer db(std::move(bad));
    victim.restore(db);
    EXPECT_FALSE(db.ok());
}

TEST(SystemSnapshot, RejectsConfigMismatch)
{
    System saver(flatConfig(Scheme::Morc), programs(2));
    saver.warmup(kWarm);
    const auto frame = stateBytes(saver);

    // Different scheme.
    {
        System other(flatConfig(Scheme::Sc2), programs(2));
        snap::Deserializer d(frame);
        other.restoreState(d);
        EXPECT_FALSE(d.ok());
    }
    // Different capacity.
    {
        SystemConfig cfg = flatConfig(Scheme::Morc);
        cfg.llcBytesPerCore = 128 * 1024;
        System other(cfg, programs(2));
        snap::Deserializer d(frame);
        other.restoreState(d);
        EXPECT_FALSE(d.ok());
    }
    // Different workloads.
    {
        System other(flatConfig(Scheme::Morc),
                     {trace::findBenchmark("mcf"),
                      trace::findBenchmark("gcc")});
        snap::Deserializer d(frame);
        other.restoreState(d);
        EXPECT_FALSE(d.ok());
    }
}

TEST(SystemSnapshot, RejectsEveryConfigFieldMismatch)
{
    // Every scalar field of SystemConfig, MorcConfig, LbeConfig and
    // MeshConfig, and each caller histogram's presence and bounds, must
    // change the frame a still-cold System saves (morc_sweep names its
    // warm snapshots by that frame) and must make a restore refuse a
    // snapshot taken under the base value. The base turns on the MORC
    // override and the mesh, so that their fields take effect.
    stats::Histogram decomp({64, 128, 256, 512});
    stats::Histogram lat({16, 32, 64});
    stats::Histogram decompOther({64, 128, 256, 1024});
    stats::Histogram latOther({16, 32, 128});
    SystemConfig base = flatConfig(Scheme::Morc);
    base.useMorcOverride = true;
    base.useMesh = true;
    base.meshCfg.width = 2;
    base.meshCfg.height = 2;
    base.decompressedBytesHistogram = &decomp;
    base.hitLatencyHistogram = &lat;

    const auto cold = [](const SystemConfig &cfg) {
        for (stats::Histogram *h :
             {cfg.decompressedBytesHistogram, cfg.hitLatencyHistogram})
            if (h)
                h->clear();
        return stateBytes(System(cfg, programs(cfg.numCores)));
    };
    const std::vector<std::uint8_t> coldBase = cold(base);
    ASSERT_TRUE(cold(base) == coldBase) << "the cold frame is not stable";

    System saver(base, programs(2));
    saver.warmup(5'000);
    const auto frame = stateBytes(saver);
    const auto restores = [&](const SystemConfig &cfg, std::string *err) {
        System other(cfg, programs(cfg.numCores));
        snap::Deserializer d(frame);
        other.restoreState(d);
        *err = d.error();
        return d.ok();
    };
    std::string err;
    ASSERT_TRUE(restores(base, &err)) << err;

    using Change = std::function<void(SystemConfig &)>;
    const std::vector<std::pair<const char *, Change>> perturb = {
        {"scheme", [](SystemConfig &c) { c.scheme = Scheme::MorcMerged; }},
        {"numCores", [](SystemConfig &c) { c.numCores += 1; }},
        {"llcBytesPerCore", [](SystemConfig &c) { c.llcBytesPerCore *= 2; }},
        {"bandwidthPerCore",
         [](SystemConfig &c) { c.bandwidthPerCore *= 2; }},
        {"clockHz", [](SystemConfig &c) { c.clockHz *= 2; }},
        {"l1Bytes", [](SystemConfig &c) { c.l1Bytes *= 2; }},
        {"l1Ways", [](SystemConfig &c) { c.l1Ways *= 2; }},
        {"l1Latency", [](SystemConfig &c) { c.l1Latency += 1; }},
        {"llcLatency", [](SystemConfig &c) { c.llcLatency += 1; }},
        {"dramCycles", [](SystemConfig &c) { c.dramCycles += 1; }},
        {"threadsPerCore", [](SystemConfig &c) { c.threadsPerCore += 1; }},
        {"interleaveQuantum",
         [](SystemConfig &c) { c.interleaveQuantum += 1; }},
        {"inclusiveWriteFills",
         [](SystemConfig &c) {
             c.inclusiveWriteFills = !c.inclusiveWriteFills;
         }},
        {"ratioSampleInterval",
         [](SystemConfig &c) { c.ratioSampleInterval *= 2; }},
        {"checkFunctional",
         [](SystemConfig &c) { c.checkFunctional = !c.checkFunctional; }},
        {"useMorcOverride",
         [](SystemConfig &c) { c.useMorcOverride = !c.useMorcOverride; }},
        {"useMesh", [](SystemConfig &c) { c.useMesh = !c.useMesh; }},
        {"telemetryEpoch",
         [](SystemConfig &c) { c.telemetryEpoch += 10'000; }},
        {"telemetryMaxSamples",
         [](SystemConfig &c) { c.telemetryMaxSamples += 1; }},
        {"traceEvents",
         [](SystemConfig &c) { c.traceEvents = !c.traceEvents; }},
        {"traceCapacity", [](SystemConfig &c) { c.traceCapacity *= 2; }},
        {"writebackBurstThreshold",
         [](SystemConfig &c) { c.writebackBurstThreshold += 1; }},
        {"nocStallThreshold",
         [](SystemConfig &c) { c.nocStallThreshold += 1; }},
        {"morc.logBytes", [](SystemConfig &c) { c.morc.logBytes *= 2; }},
        {"morc.activeLogs", [](SystemConfig &c) { c.morc.activeLogs /= 2; }},
        {"morc.lmtFactor", [](SystemConfig &c) { c.morc.lmtFactor /= 2; }},
        {"morc.lmtWays", [](SystemConfig &c) { c.morc.lmtWays /= 2; }},
        {"morc.tagStoreFactor",
         [](SystemConfig &c) { c.morc.tagStoreFactor += 1.0; }},
        {"morc.tagBases", [](SystemConfig &c) { c.morc.tagBases = 1; }},
        {"morc.fudge", [](SystemConfig &c) { c.morc.fudge *= 2; }},
        {"morc.compressionEnabled",
         [](SystemConfig &c) {
             c.morc.compressionEnabled = !c.morc.compressionEnabled;
         }},
        {"morc.unlimitedMeta",
         [](SystemConfig &c) {
             c.morc.unlimitedMeta = !c.morc.unlimitedMeta;
         }},
        {"morc.decompressBytesPerCycle",
         [](SystemConfig &c) { c.morc.decompressBytesPerCycle /= 2; }},
        {"morc.tagsPerCycle",
         [](SystemConfig &c) { c.morc.tagsPerCycle /= 2; }},
        {"morc.parallelTagData",
         [](SystemConfig &c) {
             c.morc.parallelTagData = !c.morc.parallelTagData;
         }},
        {"morc.lbe.dictBytes",
         [](SystemConfig &c) { c.morc.lbe.dictBytes /= 2; }},
        {"morc.lbe.nodes64",
         [](SystemConfig &c) { c.morc.lbe.nodes64 /= 2; }},
        {"morc.lbe.nodes128",
         [](SystemConfig &c) { c.morc.lbe.nodes128 /= 2; }},
        {"morc.lbe.nodes256",
         [](SystemConfig &c) { c.morc.lbe.nodes256 /= 2; }},
        {"meshCfg.width", [](SystemConfig &c) { c.meshCfg.width *= 2; }},
        {"meshCfg.height", [](SystemConfig &c) { c.meshCfg.height *= 2; }},
        {"meshCfg.memControllers",
         [](SystemConfig &c) { c.meshCfg.memControllers -= 1; }},
        {"meshCfg.interleaveBytes",
         [](SystemConfig &c) { c.meshCfg.interleaveBytes *= 2; }},
        {"meshCfg.hopCycles",
         [](SystemConfig &c) { c.meshCfg.hopCycles += 1; }},
        {"meshCfg.linkBytesPerCycle",
         [](SystemConfig &c) { c.meshCfg.linkBytesPerCycle *= 2; }},
        {"meshCfg.headerBytes",
         [](SystemConfig &c) { c.meshCfg.headerBytes *= 2; }},
        {"decompressedBytesHistogram presence",
         [](SystemConfig &c) { c.decompressedBytesHistogram = nullptr; }},
        {"decompressedBytesHistogram bounds",
         [&](SystemConfig &c) { c.decompressedBytesHistogram = &decompOther; }},
        {"hitLatencyHistogram presence",
         [](SystemConfig &c) { c.hitLatencyHistogram = nullptr; }},
        {"hitLatencyHistogram bounds",
         [&](SystemConfig &c) { c.hitLatencyHistogram = &latOther; }},
    };
    for (const auto &[field, change] : perturb) {
        SystemConfig cfg = base;
        change(cfg);
        EXPECT_TRUE(cold(cfg) != coldBase)
            << field << " does not change the cold frame";
        EXPECT_FALSE(restores(cfg, &err)) << field;
        EXPECT_NE(err.find("mismatch"), std::string::npos)
            << field << ": " << err;
    }

    // makeLlc sizes the LLC from llcBytesPerCore x numCores and selects
    // merged tags by scheme, so these two override fields are ignored.
    const std::vector<std::pair<const char *, Change>> ignored = {
        {"morc.capacityBytes",
         [](SystemConfig &c) { c.morc.capacityBytes *= 2; }},
        {"morc.mergedTags",
         [](SystemConfig &c) { c.morc.mergedTags = !c.morc.mergedTags; }},
    };
    for (const auto &[field, change] : ignored) {
        SystemConfig cfg = base;
        change(cfg);
        EXPECT_TRUE(cold(cfg) == coldBase)
            << field << " changes the cold frame";
        EXPECT_TRUE(restores(cfg, &err)) << field << ": " << err;
    }
}

TEST(SystemSnapshot, SaveRestoreFileAndCorruptionFallback)
{
    const std::string path = "/tmp/morc_system_snapshot_test.snap";
    const SystemConfig cfg = flatConfig(Scheme::MorcMerged);

    System saver(cfg, programs(2));
    saver.warmup(kWarm);
    std::string err;
    ASSERT_TRUE(saver.save(path, &err)) << err;

    {
        System restored(cfg, programs(2));
        EXPECT_TRUE(restored.restore(path, &err)) << err;
        EXPECT_TRUE(restored.warmed());
    }

    // One flipped byte inside the file must be rejected, with a reason.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 64, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, 64, SEEK_SET);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);

        System restored(cfg, programs(2));
        err.clear();
        EXPECT_FALSE(restored.restore(path, &err));
        EXPECT_FALSE(err.empty());
    }

    // A missing file is an error, not a crash.
    {
        System restored(cfg, programs(2));
        EXPECT_FALSE(restored.restore("/nonexistent/x.snap", &err));
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace sim
} // namespace morc
