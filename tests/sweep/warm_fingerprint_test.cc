/**
 * @file
 * The warm-snapshot fingerprint must separate every pair of configs
 * whose snapshots the restore would refuse: two sweeps that differ only
 * in a field SCFG checks but the fingerprint omits would share one warm
 * file, each rejecting and rewriting the other's.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/figures.hh"

namespace morc {
namespace bench {
namespace {

using sim::SystemConfig;

TEST(WarmFingerprint, EverySnapshotCheckedFieldSeparatesWarmFiles)
{
    SystemConfig base;
    base.scheme = sim::Scheme::Morc;
    base.useMorcOverride = true;
    base.useMesh = true;
    base.meshCfg.width = 2;
    base.meshCfg.height = 2;
    const std::vector<trace::BenchmarkSpec> programs = {
        trace::findBenchmark("gcc"), trace::findBenchmark("mcf")};

    // The fields SCFG checks that no component's walk does, each
    // perturbed as SystemSnapshot.RejectsEveryConfigFieldMismatch does.
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
    std::set<std::string> seen = {warmFingerprint(base, programs, 1000)};
    for (const auto &[field, change] : perturb) {
        SystemConfig cfg = base;
        change(cfg);
        EXPECT_TRUE(seen.insert(warmFingerprint(cfg, programs, 1000)).second)
            << field << " does not change the fingerprint";
    }
    EXPECT_EQ(warmFingerprint(base, programs, 1000),
              warmFingerprint(base, programs, 1000));
}

} // namespace
} // namespace bench
} // namespace morc
