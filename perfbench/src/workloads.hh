/**
 * @file
 * The benchmark's workloads: the simulator configurations it drives,
 * generated from a workload name and a seed.
 *
 * Seed 0 reproduces the figure configurations exactly (fig6, mesh at
 * 4x4, kvtier's "both" point with a MORC front). Any other seed re-seeds
 * every program's value/trace seed and the KV request and value seeds;
 * the simulator receives only the generated configuration.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "kv/service.hh"
#include "sim/system.hh"
#include "trace/workload.hh"

namespace perfbench {

/** One sim::System run: its configuration, programs and budgets. */
struct SimJob
{
    morc::sim::SystemConfig cfg;
    std::vector<morc::trace::BenchmarkSpec> programs;
    std::uint64_t warmupPerCore = 0;
    std::uint64_t instrPerCore = 0;
};

/** One kv::Service run: warm-up then measured requests. */
struct KvJob
{
    morc::kv::ServiceConfig cfg;
    std::uint64_t warmupRequests = 0;
    std::uint64_t measuredRequests = 0;
};

/** The non-vacuity guard a workload's runs must pass. */
enum class Guard
{
    /** Every program flushes MORC logs and compresses (ratio > 1). */
    LogFlushes,
    /** NoC links queue and every memory controller serves reads. */
    MeshQueues,
    /** Both tiers are at budget when measurement starts, and the
     *  window demotes, hits the SSD and fetches from origin. */
    TiersCycle,
};

struct Workload
{
    std::string name;
    Guard guard = Guard::LogFlushes;
    /** Sim workloads run every job in turn; KV workloads use kv. */
    std::vector<SimJob> sim;
    bool isKv = false;
    KvJob kv;
};

/** Names accepted by makeWorkload(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; false if the name is unknown. */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload *out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
