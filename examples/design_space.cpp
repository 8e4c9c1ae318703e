/**
 * @file
 * Design-space exploration on one workload: first the scheme arena
 * (every LLC in the shared sim::allSchemes() registry, so a newly
 * registered scheme shows up here without touching this file), then
 * the MORC-specific knobs — log size, active-log count, LMT
 * provisioning/associativity, tag bases, and merged tags — that
 * Sections 3.2 and 5.4 discuss.
 *
 * Exploration is expressed as a sweep: every design point is an
 * independent sweep::Task, run by the sweep engine's workers, and the
 * tables are printed from the collected records — the same pattern the
 * bench figures use (bench/morc_sweep.cc).
 *
 * Usage: design_space [workload] [jobs] (default: gcc, all cores).
 */

#include <cstdio>
#include <cstdlib>

#include "core/morc.hh"
#include "sim/system.hh"
#include "sweep/sweep.hh"

namespace {

using morc::stats::RunRecord;
using morc::sweep::Task;

/** One arena point: a registry scheme at the default 128 KB LLC. */
Task
arenaTask(std::string key, const morc::trace::BenchmarkSpec &spec,
          morc::sim::Scheme scheme)
{
    return Task{std::move(key), [spec, scheme](std::uint64_t) {
                    using namespace morc;
                    sim::SystemConfig cfg;
                    cfg.scheme = scheme;
                    cfg.ratioSampleInterval = 200'000;
                    sim::System sys(cfg, {spec});
                    const auto r = sys.run(600'000, 1'200'000);
                    RunRecord rec;
                    rec.metric("ratio", r.compressionRatio);
                    rec.metric("gb_per_binstr", r.gbPerBillionInstr());
                    rec.metric("lifetime_years", r.lifetime.years);
                    return rec;
                }};
}

Task
designTask(std::string key, const morc::trace::BenchmarkSpec &spec,
           const morc::core::MorcConfig &morc, bool merged = false)
{
    return Task{std::move(key), [spec, morc, merged](std::uint64_t) {
                    using namespace morc;
                    sim::SystemConfig cfg;
                    cfg.scheme = merged ? sim::Scheme::MorcMerged
                                        : sim::Scheme::Morc;
                    cfg.useMorcOverride = true;
                    cfg.morc = morc;
                    cfg.ratioSampleInterval = 200'000;
                    sim::System sys(cfg, {spec});
                    const auto r = sys.run(600'000, 1'200'000);
                    RunRecord rec;
                    rec.metric("ratio", r.compressionRatio);
                    rec.metric("gb_per_binstr", r.gbPerBillionInstr());
                    return rec;
                }};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace morc;
    const auto spec =
        trace::resolveWorkload(argc > 1 ? argv[1] : "gcc");
    const unsigned jobs =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 0;
    std::printf("MORC design space on %s\n\n", spec.name.c_str());

    const unsigned log_sizes[] = {128, 256, 512, 1024, 2048};
    const unsigned log_counts[] = {1, 2, 4, 8, 16};
    const unsigned lmt_factors[] = {2, 4, 8, 16};
    const unsigned lmt_ways[] = {1, 2};
    const unsigned tag_bases[] = {1, 2};

    std::vector<Task> tasks;
    for (const sim::SchemeInfo &info : sim::allSchemes())
        tasks.push_back(arenaTask(std::string("arena/") + info.cliName,
                                  spec, info.scheme));
    for (unsigned bytes : log_sizes) {
        core::MorcConfig m;
        m.logBytes = bytes;
        tasks.push_back(
            designTask("log" + std::to_string(bytes), spec, m));
    }
    for (unsigned logs : log_counts) {
        core::MorcConfig m;
        m.activeLogs = logs;
        tasks.push_back(
            designTask("active" + std::to_string(logs), spec, m));
    }
    for (unsigned factor : lmt_factors) {
        for (unsigned ways : lmt_ways) {
            core::MorcConfig m;
            m.lmtFactor = factor;
            m.lmtWays = ways;
            tasks.push_back(designTask("lmt" + std::to_string(factor) +
                                           "x" + std::to_string(ways),
                                       spec, m));
        }
    }
    for (unsigned bases : tag_bases) {
        core::MorcConfig m;
        m.tagBases = bases;
        tasks.push_back(
            designTask("bases" + std::to_string(bases), spec, m));
    }
    tasks.push_back(
        designTask("merged", spec, core::MorcConfig{}, true));

    sweep::Engine engine(jobs);
    const auto records = engine.run(tasks);
    const auto find = [&](const std::string &key) -> const RunRecord & {
        for (const auto &r : records) {
            if (r.key == key)
                return r;
        }
        std::abort();
    };

    std::printf("scheme arena (128 KB LLC):\n");
    for (const sim::SchemeInfo &info : sim::allSchemes()) {
        const auto &r = find(std::string("arena/") + info.cliName);
        std::printf("  %-14s ratio %.2f  GB/Binstr %.2f  "
                    "lifetime %.3f y\n",
                    info.name, r.get("ratio"), r.get("gb_per_binstr"),
                    r.get("lifetime_years"));
    }
    std::printf("log size (8 active logs):\n");
    for (unsigned bytes : log_sizes) {
        const auto &r = find("log" + std::to_string(bytes));
        std::printf("  %5uB: ratio %.2f  GB/Binstr %.2f\n", bytes,
                    r.get("ratio"), r.get("gb_per_binstr"));
    }
    std::printf("active logs (512B logs):\n");
    for (unsigned logs : log_counts) {
        std::printf("  %5u: ratio %.2f\n", logs,
                    find("active" + std::to_string(logs)).get("ratio"));
    }
    std::printf("LMT provisioning x associativity:\n");
    for (unsigned factor : lmt_factors) {
        for (unsigned ways : lmt_ways) {
            std::printf("  %2ux %u-way: ratio %.2f\n", factor, ways,
                        find("lmt" + std::to_string(factor) + "x" +
                             std::to_string(ways))
                            .get("ratio"));
        }
    }
    std::printf("tag compression bases / merged tags:\n");
    for (unsigned bases : tag_bases) {
        std::printf("  %u base(s): ratio %.2f\n", bases,
                    find("bases" + std::to_string(bases)).get("ratio"));
    }
    std::printf("  merged tags: ratio %.2f\n",
                find("merged").get("ratio"));
    return 0;
}
