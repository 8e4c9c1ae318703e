#include "workloads.hh"

#include <algorithm>

#include "util/rng.hh"

namespace perfbench {

namespace {

using morc::mix64;

/** morc_sweep's default per-core budgets (MORC_BENCH_INSTR/WARMUP). */
constexpr std::uint64_t kFigInstr = 800'000;
constexpr std::uint64_t kFigWarmup = 1'600'000;

/** fig6 runs at an eighth of the default budgets (the same as
 *  MORC_BENCH_INSTR=100000 MORC_BENCH_WARMUP=200000), so one pass over
 *  its four programs takes about two host-seconds. */
constexpr std::uint64_t kFig6Instr = kFigInstr / 8;
constexpr std::uint64_t kFig6Warmup = kFigWarmup / 8;

morc::trace::BenchmarkSpec
program(const std::string &name, std::uint64_t seed)
{
    morc::trace::BenchmarkSpec spec = morc::trace::resolveWorkload(name);
    if (seed != 0)
        spec.data.seed = mix64(spec.data.seed, seed);
    return spec;
}

/** Figure 6: one core, 128 KB LLC, 100 MB/s, one System per program. */
void
fig6Morc(std::uint64_t seed, Workload *w)
{
    for (const char *name : {"gcc", "mcf", "leslie3d", "h264ref"}) {
        SimJob job;
        job.cfg.scheme = morc::sim::Scheme::Morc;
        job.cfg.bandwidthPerCore = 100e6;
        job.cfg.llcBytesPerCore = 128 * 1024;
        job.cfg.ratioSampleInterval =
            std::max<std::uint64_t>(kFig6Instr / 8, 50'000);
        job.programs = {program(name, seed)};
        job.warmupPerCore = kFig6Warmup;
        job.instrPerCore = kFig6Instr;
        w->sim.push_back(std::move(job));
    }
}

/** The mesh figure at 4x4: 16 tiles, 2 controllers, 1600 MB/s total. */
void
mesh16Unc(std::uint64_t seed, Workload *w)
{
    const unsigned dim = 4, tiles = dim * dim;
    SimJob job;
    job.instrPerCore = std::max<std::uint64_t>(kFigInstr / 8, 10'000);
    job.warmupPerCore = std::max<std::uint64_t>(kFigWarmup / 8, 10'000);
    job.cfg.scheme = morc::sim::Scheme::Uncompressed;
    job.cfg.useMesh = true;
    job.cfg.meshCfg.width = dim;
    job.cfg.meshCfg.height = dim;
    job.cfg.meshCfg.memControllers = std::max(1u, dim / 2);
    job.cfg.numCores = tiles;
    job.cfg.bandwidthPerCore = 1600e6 / tiles;
    job.cfg.llcBytesPerCore = 128 * 1024;
    job.cfg.interleaveQuantum = 1;
    job.cfg.ratioSampleInterval =
        std::max<std::uint64_t>(job.instrPerCore, 100'000);
    const char *const names[] = {"gcc", "mcf", "omnetpp", "soplex"};
    for (unsigned c = 0; c < tiles; c++)
        job.programs.push_back(program(names[c % 4], seed));
    w->sim.push_back(std::move(job));
    w->guard = Guard::MeshQueues;
}

/** kvserve's 4-tenant service over kvtier's tight compressed tiers. */
void
kvMorc(std::uint64_t seed, Workload *w)
{
    morc::kv::ServiceConfig &cfg = w->kv.cfg;
    cfg.scheme = morc::sim::Scheme::Morc;
    cfg.frontBytes = 2ull << 20;
    cfg.seed = 0x6b76;
    cfg.values.seed = 0x76616c;
    if (seed != 0) {
        cfg.seed = mix64(cfg.seed, seed);
        cfg.values.seed = mix64(cfg.values.seed, seed);
    }
    cfg.tier.dramBytes = 4ull << 20;
    cfg.tier.ssdBytes = 4ull << 20;
    cfg.tier.dramCompressed = true;
    cfg.tier.ssdCompressed = true;
    cfg.tenants.push_back({"social", 262144, 1.1, 4, 0.05, 4096, 997});
    cfg.tenants.push_back({"search", 262144, 0.8, 2, 0.02, 0, 0});
    cfg.tenants.push_back({"feed", 262144, 1.2, 1, 0.3, 8192, 4999});
    cfg.tenants.push_back({"analytics", 262144, 0.6, 1, 0.5, 0, 0});
    w->isKv = true;
    w->guard = Guard::TiersCycle;
    w->kv.warmupRequests = 160'000;
    w->kv.measuredRequests = 40'000;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig6-morc",
                                                   "mesh16-unc", "kv-morc"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload *out)
{
    Workload w;
    w.name = name;
    if (name == "fig6-morc")
        fig6Morc(seed, &w);
    else if (name == "mesh16-unc")
        mesh16Unc(seed, &w);
    else if (name == "kv-morc")
        kvMorc(seed, &w);
    else
        return false;
    *out = std::move(w);
    return true;
}

} // namespace perfbench
