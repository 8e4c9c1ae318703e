/**
 * @file
 * Whole-system checkpoint tests: for every cache scheme — flat,
 * merged-tag MORC, and the 4x4 banked-mesh substrate — a system saved
 * after warm-up and restored into a fresh instance must continue
 * *byte-identically*: the measured-window results match and the final
 * serialized states are equal down to the last bit. Plus rejection of
 * mismatched configs (every config field no component checks),
 * mismatched workloads, and corrupt files.
 */

#include <gtest/gtest.h>

#include <cstdio>
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
    EXPECT_EQ(got.llcStats.readHits, want.llcStats.readHits);
    EXPECT_EQ(got.llcStats.logFlushes, want.llcStats.logFlushes);
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
                    0xabe1878d4195f03aull);
}

TEST(SystemSnapshot, Adaptive)
{
    expectRoundTrip(flatConfig(Scheme::Adaptive), 2, 0x8735426054bb961bull);
}

TEST(SystemSnapshot, Decoupled)
{
    expectRoundTrip(flatConfig(Scheme::Decoupled), 2, 0xcef541c5bea123a1ull);
}

TEST(SystemSnapshot, Sc2)
{
    expectRoundTrip(flatConfig(Scheme::Sc2), 2, 0xdefc513323b6665dull);
}

TEST(SystemSnapshot, Morc)
{
    expectRoundTrip(flatConfig(Scheme::Morc), 2, 0x1e1403d00c99cec1ull);
}

TEST(SystemSnapshot, MorcMerged)
{
    expectRoundTrip(flatConfig(Scheme::MorcMerged), 2, 0x11dcd44ca13f05a1ull);
}

TEST(SystemSnapshot, OracleInter)
{
    expectRoundTrip(flatConfig(Scheme::OracleInter), 2, 0xc98d8638dee83c08ull);
}

TEST(SystemSnapshot, Uncompressed8x)
{
    expectRoundTrip(flatConfig(Scheme::Uncompressed8x), 2,
                    0xbfd035ca3f633268ull);
}

TEST(SystemSnapshot, OracleIntra)
{
    expectRoundTrip(flatConfig(Scheme::OracleIntra), 2, 0x4a87ff332ce901b1ull);
}

TEST(SystemSnapshot, Touche)
{
    expectRoundTrip(flatConfig(Scheme::Touche), 2, 0xf59c66d7e073a71eull);
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
    expectRoundTrip(cfg, 4, 0xe1202945cbb437d8ull);
}

TEST(SystemSnapshot, WithTelemetryAndTrace)
{
    SystemConfig cfg = flatConfig(Scheme::Morc);
    cfg.telemetryEpoch = 10'000;
    cfg.traceEvents = true;
    expectRoundTrip(cfg, 2, 0xc413d219af20ac86ull);
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
    EXPECT_EQ(frameDigest(frame), 0xc1371401e83e350cull);

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
    // Fields that shape a run but that no component's walk checks:
    // only SCFG can refuse a snapshot taken under another value of any
    // of them.
    SystemConfig base = flatConfig(Scheme::Morc);
    base.useMorcOverride = true;
    base.useMesh = true;
    base.meshCfg.width = 2;
    base.meshCfg.height = 2;
    System saver(base, programs(2));
    saver.warmup(5'000);
    const auto frame = stateBytes(saver);

    const auto restores = [&](const SystemConfig &cfg, std::string *err) {
        System other(cfg, programs(2));
        snap::Deserializer d(frame);
        other.restoreState(d);
        *err = d.error();
        return d.ok();
    };
    std::string err;
    ASSERT_TRUE(restores(base, &err)) << err;

    const std::vector<std::pair<const char *,
                                void (*)(SystemConfig &)>> perturb = {
        {"meshCfg.interleaveBytes",
         [](SystemConfig &c) { c.meshCfg.interleaveBytes *= 2; }},
        {"meshCfg.hopCycles",
         [](SystemConfig &c) { c.meshCfg.hopCycles += 1; }},
        {"meshCfg.linkBytesPerCycle",
         [](SystemConfig &c) { c.meshCfg.linkBytesPerCycle *= 2; }},
        {"meshCfg.headerBytes",
         [](SystemConfig &c) { c.meshCfg.headerBytes *= 2; }},
        {"morc.decompressBytesPerCycle",
         [](SystemConfig &c) { c.morc.decompressBytesPerCycle /= 2; }},
        {"morc.tagsPerCycle",
         [](SystemConfig &c) { c.morc.tagsPerCycle /= 2; }},
        {"morc.parallelTagData",
         [](SystemConfig &c) {
             c.morc.parallelTagData = !c.morc.parallelTagData;
         }},
        {"writebackBurstThreshold",
         [](SystemConfig &c) { c.writebackBurstThreshold += 1; }},
        {"nocStallThreshold",
         [](SystemConfig &c) { c.nocStallThreshold += 1; }},
    };
    for (const auto &[field, change] : perturb) {
        SystemConfig cfg = base;
        change(cfg);
        EXPECT_FALSE(restores(cfg, &err)) << field;
        EXPECT_NE(err.find("system configuration mismatch"),
                  std::string::npos)
            << field << ": " << err;
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
