/**
 * @file
 * perfbench: host-time benchmark of the MORC simulator.
 *
 *   perfbench --workload <fig6-morc|mesh16-unc|kv-morc> --seed N
 *             --seconds S --trace 0|1 [--spans-out FILE]
 *
 * --trace 0 (end to end) repeats the workload through the entry points
 * users call -- the sim::System constructor, warmup() and measure(), or
 * the kv::Service constructor and its request loop -- until S seconds
 * have passed (at least two passes), and reports host throughput, wall
 * and set-up time, peak RSS and the simulated outputs. Every pass is
 * audited, checked against the workload's non-vacuity guard, and must
 * reproduce the first pass's simulated counters exactly.
 *
 * --trace 1 (per layer) runs the workload once untraced, then replays it
 * through the mirror (sim_mirror.hh, kv_mirror.hh) with a span around
 * every call into a layer, checks the mirror reproduced every counter,
 * and reports calls, ns per call and self ns per op for each layer.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "digest.hh"
#include "kv_mirror.hh"
#include "sim_mirror.hh"
#include "spans.hh"
#include "stats/summary.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using morc::kLineSize;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string spansOut;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
seconds(std::int64_t from, std::int64_t to)
{
    return double(to - from) * 1e-9;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

// ----------------------------------------------------------------------
// Simulated outputs and guards (identical for every pass of one seed)
// ----------------------------------------------------------------------

/** The simulated results of one pass over a workload. */
struct SimOutputs
{
    double ratio = 0.0;   // gmean LLC ratio / front-cache ratio
    double hitRate = 0.0; // LLC read-hit / front line-hit rate
    double gbPerBinstr = 0.0;
    double ipc = 0.0;
    double throughput = 0.0;
    double p50 = 0.0;
    double p999 = 0.0;
    std::uint64_t measuredRequests = 0;
    std::uint64_t digest = 0; // every counter, for repeatability
};

/** Fold the per-job results of a sim workload into its outputs. */
SimOutputs
simOutputs(const std::vector<morc::sim::RunResult> &runs)
{
    SimOutputs o;
    std::vector<double> ratios, gbs, ipcs, thrs;
    std::uint64_t hits = 0, reads = 0;
    o.digest = kFnvBasis;
    for (const auto &r : runs) {
        ratios.push_back(r.compressionRatio);
        gbs.push_back(r.gbPerBillionInstr());
        for (const auto &c : r.cores) {
            ipcs.push_back(c.ipc());
            thrs.push_back(c.throughput());
        }
        hits += r.llcStats.readHits;
        reads += r.llcStats.reads;
        o.digest = o.digest * 31 + digestCounters(countersOf(r));
    }
    o.ratio = morc::stats::gmean(ratios);
    o.gbPerBinstr = morc::stats::gmean(gbs);
    o.ipc = morc::stats::gmean(ipcs);
    o.throughput = morc::stats::gmean(thrs);
    o.hitRate = ratio(double(hits), double(reads));
    return o;
}

/** Non-vacuity guard of one sim job; returns "" when it holds. */
std::string
simGuard(Guard g, const morc::sim::RunResult &r)
{
    if (g == Guard::LogFlushes) {
        if (r.llcStats.logFlushes == 0)
            return "no MORC log flush in the measured window";
        if (!(r.compressionRatio > 1.0))
            return "compression ratio is not above 1";
    } else if (g == Guard::MeshQueues) {
        if (r.nocQueueHist.total() == r.nocQueueHist.count(0))
            return "no NoC message queued";
        if (r.memReads == 0)
            return "no memory reads";
    }
    return "";
}

/** The state of a Service when its measured window starts; the window's
 *  guard and outputs are deltas from it. */
class KvWindow
{
  public:
    explicit KvWindow(const morc::kv::Service &svc)
        : tier_(svc.tiers().stats()), front_(svc.front().stats()),
          latency_(svc.latency())
    {
        const morc::kv::TieredStore &t = svc.tiers();
        atBudget_ = t.dramUsedBytes() + kLineSize > t.config().dramBytes &&
                    t.ssdUsedBytes() + kLineSize > t.config().ssdBytes;
    }

    /** The TiersCycle guard; "" when it holds. */
    std::string
    guard(const morc::kv::Service &svc) const
    {
        const morc::kv::TierStats d = tierDelta(svc);
        if (!atBudget_)
            return "tiers not at budget when measurement starts";
        if (d.demotions == 0)
            return "no DRAM->SSD demotion in the measured window";
        if (d.ssdHits == 0)
            return "no SSD hit in the measured window";
        if (d.originFetches == 0)
            return "no origin fetch in the measured window";
        return "";
    }

    morc::kv::TierStats
    tierDelta(const morc::kv::Service &svc) const
    {
        const morc::kv::TierStats &a = svc.tiers().stats();
        morc::kv::TierStats d;
        d.dramHits = a.dramHits - tier_.dramHits;
        d.ssdHits = a.ssdHits - tier_.ssdHits;
        d.originFetches = a.originFetches - tier_.originFetches;
        d.demotions = a.demotions - tier_.demotions;
        return d;
    }

    morc::cache::LlcStats
    frontDelta(const morc::kv::Service &svc) const
    {
        return svc.front().stats() - front_;
    }

    /** Simulated outputs of the window; percentiles as the kvserve
     *  figure computes them, from the latency histogram. */
    SimOutputs
    outputs(const morc::kv::Service &svc) const
    {
        const morc::cache::LlcStats f = frontDelta(svc);
        const morc::stats::Histogram lat = svc.latency() - latency_;
        SimOutputs o;
        o.ratio = svc.front().compressionRatio();
        o.hitRate = ratio(double(f.readHits), double(f.reads));
        o.measuredRequests = lat.total();
        o.p50 = morc::kv::histPercentile(lat, 0.50);
        o.p999 = morc::kv::histPercentile(lat, 0.999);
        o.digest = digestKvCounters(kvCountersOf(
                       svc.front().stats(), svc.tiers(), svc.requests(), 0)) *
                       31 +
                   svc.cycles();
        for (std::size_t i = 0; i < lat.numBuckets(); i++)
            o.digest = o.digest * 31 + lat.count(i);
        return o;
    }

  private:
    morc::kv::TierStats tier_;
    morc::cache::LlcStats front_;
    morc::stats::Histogram latency_;
    bool atBudget_ = false;
};

// ----------------------------------------------------------------------
// End-to-end passes (tracing off)
// ----------------------------------------------------------------------

/** Host times and outputs of one pass over the workload. */
struct Pass
{
    std::string failure; // "" = passed
    double setupS = 0.0;   // constructors
    double wallS = 0.0;    // constructors + warm-up + measured window
    double measureS = 0.0; // measured window
    std::uint64_t ops = 0; // measured ops
    SimOutputs out;
};

/** One pass over a sim workload; @p runs receives each job's result. */
Pass
simPass(const Workload &w, std::vector<morc::sim::RunResult> &runs)
{
    Pass p;
    runs.clear();
    for (const SimJob &job : w.sim) {
        const std::int64_t t0 = nowNs();
        auto sys = std::make_unique<morc::sim::System>(job.cfg, job.programs);
        const std::int64_t t1 = nowNs();
        sys->warmup(job.warmupPerCore);
        const std::int64_t t2 = nowNs();
        runs.push_back(sys->measure(job.instrPerCore));
        const std::int64_t t3 = nowNs();
        p.setupS += seconds(t0, t1);
        p.wallS += seconds(t0, t3);
        p.measureS += seconds(t2, t3);
        for (const auto &c : runs.back().cores)
            p.ops += c.l1Accesses;
        const morc::check::AuditReport audit = sys->llc().audit();
        if (!audit.ok() && p.failure.empty())
            p.failure = "LLC audit: " + audit.str();
        const std::string g = simGuard(w.guard, runs.back());
        if (!g.empty() && p.failure.empty())
            p.failure = job.programs.front().name + ": " + g;
    }
    p.out = simOutputs(runs);
    return p;
}

Pass
kvPass(const Workload &w)
{
    Pass p;
    const KvJob &job = w.kv;
    const std::int64_t t0 = nowNs();
    morc::kv::Service svc(job.cfg);
    const std::int64_t t1 = nowNs();
    svc.run(job.warmupRequests);
    const KvWindow start(svc);
    const std::int64_t t2 = nowNs();
    svc.run(job.measuredRequests);
    const std::int64_t t3 = nowNs();
    p.setupS = seconds(t0, t1);
    p.wallS = seconds(t0, t3);
    p.measureS = seconds(t2, t3);
    p.ops = job.measuredRequests;

    const morc::check::AuditReport audit = svc.audit();
    if (!audit.ok())
        p.failure = "service audit: " + audit.str();
    const std::string g = start.guard(svc);
    if (!g.empty() && p.failure.empty())
        p.failure = g;
    p.out = start.outputs(svc);
    return p;
}

/** Set-up cost of the workload alone: every constructor of one pass. */
double
setupOnly(const Workload &w)
{
    double s = 0.0;
    if (w.isKv) {
        const std::int64_t t0 = nowNs();
        auto svc = std::make_unique<morc::kv::Service>(w.kv.cfg);
        s += seconds(t0, nowNs());
    } else {
        for (const SimJob &job : w.sim) {
            const std::int64_t t0 = nowNs();
            auto sys =
                std::make_unique<morc::sim::System>(job.cfg, job.programs);
            s += seconds(t0, nowNs());
        }
    }
    return s;
}

void
printSimulated(const Workload &w, const SimOutputs &o)
{
    if (w.isKv) {
        std::printf("%s: kv.hit_rate=%.6f kv.p50_cycles=%.0f "
                    "kv.p99.9_cycles=%.0f over %llu measured requests, "
                    "sim.ratio=%.6f (front cache)\n",
                    w.name.c_str(), o.hitRate, o.p50, o.p999,
                    static_cast<unsigned long long>(o.measuredRequests),
                    o.ratio);
    } else {
        std::printf("%s: sim.ratio=%.6f sim.gb_per_binstr=%.6f GB/Binstr "
                    "sim.ipc=%.6f sim.throughput=%.6f sim.hit_rate=%.6f\n",
                    w.name.c_str(), o.ratio, o.gbPerBinstr, o.ipc,
                    o.throughput, o.hitRate);
    }
}

int
endToEnd(const Workload &w, const Options &opt)
{
    const std::int64_t start = nowNs();
    std::vector<Pass> passes;
    std::uint64_t failed = 0;
    const Pass *first = nullptr; // first passing pass
    passes.reserve(64);
    do {
        Pass p;
        try {
            std::vector<morc::sim::RunResult> runs;
            p = w.isKv ? kvPass(w) : simPass(w, runs);
        } catch (const std::exception &e) {
            p.failure = std::string("exception: ") + e.what();
        }
        passes.push_back(std::move(p));
        const Pass &last = passes.back();
        if (!last.failure.empty()) {
            failed++;
            std::fprintf(stderr, "pass %zu failed: %s\n", passes.size(),
                         last.failure.c_str());
            continue;
        }
        if (!first) {
            first = &passes.back();
        } else if (last.out.digest != first->out.digest) {
            passes.back().failure = "not repeatable";
            failed++;
            std::fprintf(stderr, "pass %zu: simulated counters differ "
                         "from the first pass\n", passes.size());
        }
    } while ((passes.size() < 2 ||
              seconds(start, nowNs()) + passes.back().wallS <= opt.seconds) &&
             passes.size() < 64);

    // Throughput over every measured window of the run, and the mean
    // pass. On a shared host, speed switches between levels for seconds
    // at a time; a mean over the run averages the levels where a median
    // of a few passes would pick one of them.
    double wall = 0.0, measure = 0.0, ops = 0.0, passed = 0.0;
    std::vector<double> setups;
    for (const Pass &p : passes) {
        if (!p.failure.empty())
            continue;
        wall += p.wallS;
        measure += p.measureS;
        ops += double(p.ops);
        passed += 1.0;
        setups.push_back(p.setupS);
    }
    wall = ratio(wall, passed);
    // Set-up is cheap next to a pass: sample it on its own until the
    // median rests on at least nine constructions.
    while (setups.size() < 9)
        setups.push_back(setupOnly(w));
    const double opsPerS = ratio(ops, measure);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const SimOutputs out = first ? first->out : SimOutputs{};
    if (first)
        printSimulated(w, out);
    std::printf("%s: %zu passes, %llu failed; ops_per_s=%.1f wall_s=%.4f "
                "setup_s=%.6f\n",
                w.name.c_str(), passes.size(),
                static_cast<unsigned long long>(failed), opsPerS, wall,
                median(setups));
    printResult(failed == 0, passes.size(), failed,
                {{"ops_per_s", opsPerS, "ops/s"},
                 {"wall_s", wall, "s"},
                 {"setup_s", median(setups), "s"},
                 {"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"},
                 {"sim.ratio", out.ratio, "x"},
                 {"sim.hit_rate", out.hitRate, "frac"}});
    return 0;
}

// ----------------------------------------------------------------------
// Traced run
// ----------------------------------------------------------------------

/** What the traced run learns from the untraced program and its
 *  mirror. */
struct Traced
{
    std::string failure;      // program failure (audit, guard, throw)
    bool compared = false;    // the mirror ran and was compared
    std::string mismatch;     // mirror diverged from the program
    double untracedNs = 0.0;  // measured window, program
    double tracedNs = 0.0;    // measured window, mirror
    std::uint64_t ops = 0;
    SimOutputs out;
    morc::cache::LlcStats llc;      // measured-window cache counters
    std::uint64_t memReads = 0;
    std::uint64_t readQueueCycles = 0;
    double nocMeanHops = 0.0;
    double nocQueuePerMsg = 0.0;
    morc::kv::TierStats tierDelta;
};

void
note(std::string &slot, const std::string &what)
{
    if (slot.empty())
        slot = what;
}

/** Run @p w untraced and through the mirror, with spans on over the
 *  mirror's measured windows; @p mirror_first picks the order, so that
 *  alternating rounds share host drift evenly. With @p perturb the
 *  mirror drops its first measured-window write-back (the self-test). */
Traced
tracedSim(const Workload &w, SpanTracer &tr, bool perturb, bool mirror_first)
{
    Traced t;
    std::vector<SimCounters> mirrored;
    const auto mirror = [&] {
        for (const SimJob &job : w.sim) {
            SimMirror m(job, tr);
            m.warmup(job.warmupPerCore);
            if (perturb)
                m.dropWriteback(m.writebacks());
            tr.setEnabled(true);
            const std::int64_t t0 = nowNs();
            mirrored.push_back(m.measure(job.instrPerCore));
            t.tracedNs += double(nowNs() - t0);
            tr.setEnabled(false);
            if (m.valueMismatches() != 0)
                note(t.mismatch, std::to_string(m.valueMismatches()) +
                                     " LLC hits returned a stale line");
            t.memReads += mirrored.back().memReads;
            t.readQueueCycles += m.readQueueCycles();
            if (const morc::mesh::Noc *noc = m.noc()) {
                t.nocMeanHops = noc->meanHops();
                t.nocQueuePerMsg = ratio(double(noc->queueCycleSum()),
                                         double(noc->messages()));
            }
            if (w.guard == Guard::MeshQueues) {
                for (std::uint64_t reads : m.channelReads())
                    if (reads == 0)
                        note(t.failure, "a memory controller served no reads");
            }
        }
    };
    if (mirror_first)
        mirror();
    std::vector<morc::sim::RunResult> runs;
    const Pass ref = simPass(w, runs);
    if (!mirror_first)
        mirror();
    note(t.failure, ref.failure);
    t.out = ref.out;
    t.untracedNs = ref.measureS * 1e9;
    t.ops = ref.ops;
    for (std::size_t j = 0; j < w.sim.size(); j++) {
        t.llc += runs[j].llcStats;
        const std::string d = diffCounters(countersOf(runs[j]), mirrored[j]);
        if (!d.empty())
            note(t.mismatch, w.sim[j].programs.front().name + ": " + d);
    }
    t.compared = true;
    return t;
}

/** The KV counterpart of tracedSim(). The program and the mirror are
 *  both warmed first, then serve the measured window in alternating
 *  chunks, so both sample the same host conditions. */
Traced
tracedKv(const Workload &w, SpanTracer &tr, bool perturb, bool mirror_first)
{
    constexpr std::uint64_t kChunk = 2000;
    Traced t;
    const KvJob &job = w.kv;
    morc::kv::Service svc(job.cfg);
    KvMirror m(job, tr);
    std::uint64_t ref = kFnvBasis, mine = kFnvBasis;
    for (std::uint64_t i = 0; i < job.warmupRequests; i++) {
        ref = foldReply(ref, svc.step());
        mine = foldReply(mine, m.step());
    }
    const KvWindow start(svc);
    if (perturb)
        m.dropWriteback(m.writebacks());
    const auto serveProgram = [&](std::uint64_t n) {
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < n; i++)
            ref = foldReply(ref, svc.step());
        t.untracedNs += double(nowNs() - t0);
    };
    const auto serveMirror = [&](std::uint64_t n) {
        tr.setEnabled(true);
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < n; i++)
            mine = foldReply(mine, m.step());
        t.tracedNs += double(nowNs() - t0);
        tr.setEnabled(false);
    };
    for (std::uint64_t done = 0; done < job.measuredRequests;) {
        const std::uint64_t n = std::min(kChunk, job.measuredRequests - done);
        if (mirror_first) {
            serveMirror(n);
            serveProgram(n);
        } else {
            serveProgram(n);
            serveMirror(n);
        }
        done += n;
    }
    t.ops = job.measuredRequests;
    const morc::check::AuditReport audit = svc.audit();
    if (!audit.ok())
        note(t.failure, "service audit: " + audit.str());
    note(t.failure, start.guard(svc));
    t.llc = start.frontDelta(svc);
    t.tierDelta = start.tierDelta(svc);
    t.out = start.outputs(svc);

    const std::string d = diffKvCounters(
        kvCountersOf(svc.front().stats(), svc.tiers(), svc.requests(), ref),
        kvCountersOf(m.front().stats(), m.tiers(), m.requests(), mine));
    if (!d.empty())
        note(t.mismatch, d);
    if (m.valueMismatches() != 0)
        note(t.mismatch, std::to_string(m.valueMismatches()) +
                             " front hits returned a stale line");
    t.compared = true;
    return t;
}

Traced
tracedRun(const Workload &w, SpanTracer &tr, bool perturb, bool mirror_first)
{
    return w.isKv ? tracedKv(w, tr, perturb, mirror_first)
                  : tracedSim(w, tr, perturb, mirror_first);
}

/**
 * Mirror self-test on a shrunken copy of the workload: an unperturbed
 * mirror must match the program, and one that drops a single measured-
 * window write-back must not.
 */
bool
selfTest(Workload w)
{
    if (w.isKv) {
        w.kv.cfg.frontBytes = 64 * 1024; // evicts (writes back) early
        w.kv.warmupRequests = 3000;
        w.kv.measuredRequests = 2000;
    }
    for (SimJob &job : w.sim) {
        job.warmupPerCore = 20'000;
        job.instrPerCore = 20'000;
    }
    SpanTracer tr;
    const Traced clean = tracedRun(w, tr, false, false);
    const Traced dropped = tracedRun(w, tr, true, false);
    return clean.compared && clean.mismatch.empty() && dropped.compared &&
           !dropped.mismatch.empty();
}

int
traced(const Workload &w, const Options &opt)
{
    const SpanTracer::Cost loop = SpanTracer::calibrate();
    SpanTracer tr;
    Traced t;
    bool selfTestOk = false;
    std::uint64_t rounds = 0;
    std::uint64_t roundOps = 0; // ops of one round, for the counts
    try {
        selfTestOk = selfTest(w);
        // Rounds repeat while another fits in --seconds, alternating
        // which side runs first; spans and times accumulate over them.
        const std::int64_t start = nowNs();
        double last = 0.0;
        do {
            const std::int64_t r0 = nowNs();
            const Traced r = tracedRun(w, tr, false, rounds % 2 == 1);
            if (rounds++ == 0) {
                t = r;
                roundOps = r.ops;
            } else {
                t.untracedNs += r.untracedNs;
                t.tracedNs += r.tracedNs;
                t.ops += r.ops;
                t.compared = t.compared && r.compared;
                note(t.failure, r.failure);
                note(t.mismatch, r.mismatch);
            }
            last = seconds(r0, nowNs());
        } while (seconds(start, nowNs()) + last <= opt.seconds &&
                 rounds < 64);
    } catch (const std::exception &e) {
        t.failure = std::string("exception: ") + e.what();
        t.compared = false;
    }
    const SpanTracer::Cost cost = tr.cost(loop);
    const bool failed = !t.failure.empty();
    if (failed)
        std::fprintf(stderr, "traced run failed: %s\n", t.failure.c_str());
    const bool exact = t.compared && t.mismatch.empty();
    if (!t.mismatch.empty())
        std::fprintf(stderr, "mirror diverged: %s\n", t.mismatch.c_str());

    const double ops = std::max<double>(1.0, double(t.ops));
    std::vector<Metric> m;
    if (exact) {
        double layersNs = 0.0;
        for (unsigned l = 0; l < kNumLayers; l++) {
            const double self = tr.selfNs(l, cost);
            const double calls = double(tr.calls(l));
            layersNs += self;
            const std::string n = kLayerNames[l];
            m.push_back({n + ".calls_per_op", calls / ops, "calls/op"});
            m.push_back({n + ".ns_per_call", ratio(self, calls), "ns"});
            m.push_back({n + ".ns_per_op", self / ops, "ns/op"});
        }
        const double step = (t.untracedNs - layersNs) / ops;
        m.push_back({"sim.step.ns_per_op", w.isKv ? 0.0 : step, "ns/op"});
        m.push_back({"kv.step.ns_per_op", w.isKv ? step : 0.0, "ns/op"});
        // The mirror's hit-value checks are harness work, not tracing.
        const SpanTracer::Agg &h = tr.agg(kNumSlots, Harness);
        const double harnessNs =
            double(h.totalNs) + double(h.calls) * cost.outerNs;
        m.push_back({"bench.tracing_overhead_ns_per_op",
                     (t.tracedNs - harnessNs - t.untracedNs) / ops, "ns/op"});
    }
    // Counts come from the first round; every round repeats them.
    const morc::cache::LlcStats &c = t.llc;
    const double fetches = double(t.tierDelta.dramHits + t.tierDelta.ssdHits +
                                  t.tierDelta.originFetches);
    const SimOutputs &o = t.out;
    const std::vector<Metric> counts = {
        {"cache.hit_rate", ratio(double(c.readHits), double(c.reads)),
         "frac"},
        {"cache.bytes_decompressed_per_hit",
         ratio(double(c.bytesDecompressed), double(c.readHits)), "bytes/hit"},
        {"cache.log_flushes_per_kinsert",
         1000.0 * ratio(double(c.logFlushes), double(c.inserts)),
         "1/kinsert"},
        {"cache.lmt_conflicts_per_kinsert",
         1000.0 * ratio(double(c.lmtConflictEvicts), double(c.inserts)),
         "1/kinsert"},
        {"sim.mem.queue_cycles_per_read",
         ratio(double(t.readQueueCycles), double(t.memReads)), "cycles/read"},
        {"mesh.noc.mean_hops", t.nocMeanHops, "hops"},
        {"mesh.noc.queue_cycles_per_msg", t.nocQueuePerMsg, "cycles/msg"},
        {"kv.tier.dram_hit_frac", ratio(double(t.tierDelta.dramHits), fetches),
         "frac"},
        {"kv.tier.ssd_hit_frac", ratio(double(t.tierDelta.ssdHits), fetches),
         "frac"},
        {"kv.tier.origin_frac",
         ratio(double(t.tierDelta.originFetches), fetches), "frac"},
        {"kv.tier.demotions_per_kreq",
         1000.0 * ratio(double(t.tierDelta.demotions), double(roundOps)),
         "1/kreq"},
        {"sim.gb_per_binstr", w.isKv ? 0.0 : o.gbPerBinstr, "GB/Binstr"},
        {"sim.ipc", w.isKv ? 0.0 : o.ipc, "instr/cycle"},
        {"sim.throughput", w.isKv ? 0.0 : o.throughput, "instr/cycle"},
        {"kv.hit_rate", w.isKv ? o.hitRate : 0.0, "frac"},
        {"kv.p50_cycles", o.p50, "cycles"},
        {"kv.p99.9_cycles", o.p999, "cycles"},
        {"kv.requests_measured", double(o.measuredRequests), "requests"},
        {"bench.span_cost_ns", cost.innerNs, "ns"},
        {"bench.mirror_exact", exact ? 1.0 : 0.0, "bool"},
        {"bench.mirror_selftest", selfTestOk ? 1.0 : 0.0, "bool"},
    };
    m.insert(m.end(), counts.begin(), counts.end());

    if (exact && !opt.spansOut.empty()) {
        const std::string header = "\"workload\": \"" + w.name +
                                   "\", \"seed\": " +
                                   std::to_string(opt.seed);
        if (!tr.writeSamples(opt.spansOut, header, cost))
            std::fprintf(stderr, "cannot write %s\n", opt.spansOut.c_str());
    }
    std::printf("%s: %llu rounds, traced %llu ops, untraced %.1f ns/op, "
                "traced %.1f ns/op, span %.1f ns, mirror %s, self-test %s\n",
                w.name.c_str(), static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(t.ops),
                t.untracedNs / ops, t.tracedNs / ops, cost.innerNs,
                exact ? "exact" : "DIVERGED", selfTestOk ? "ok" : "FAILED");
    const std::uint64_t attempted = std::max<std::uint64_t>(rounds, 1);
    printResult(!failed, attempted, failed ? attempted : 0, m);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\nworkloads:");
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            opt.trace = std::atoi(v);
            if (opt.trace != 0 && opt.trace != 1)
                return usage();
        } else if (a == "--spans-out") {
            opt.spansOut = v;
        } else {
            return usage();
        }
        if (end && *end != '\0')
            return usage();
    }
    Workload w;
    if (!makeWorkload(opt.workload, opt.seed, &w))
        return usage();
    return opt.trace ? traced(w, opt) : endToEnd(w, opt);
}
