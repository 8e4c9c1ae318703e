#include "spans.hh"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const char *
slotName(unsigned slot)
{
    if (slot < kNumLayers)
        return kLayerNames[slot];
    if (slot == Harness)
        return "bench.check";
    return slot == Probe ? "bench.probe" : "op";
}

} // namespace

SpanTracer::Cost
SpanTracer::calibrate()
{
    constexpr int kBatches = 9;
    constexpr int kSpans = 20000;
    std::vector<double> inner, outer;
    for (int b = 0; b < kBatches; b++) {
        SpanTracer t;
        t.setEnabled(true);
        t.beginOp(1); // not a sampled op
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kSpans; i++)
            t.timed(SimL1, [] {});
        const std::int64_t t1 = nowNs();
        inner.push_back(double(t.agg(kNumSlots, SimL1).totalNs) / kSpans);
        outer.push_back(double(t1 - t0) / kSpans);
    }
    return {median(inner), median(outer)};
}

SpanTracer::Cost
SpanTracer::cost(const Cost &loop) const
{
    const Agg &probe = agg_[kNumSlots][Probe];
    if (probe.calls == 0)
        return loop;
    return {double(probe.totalNs) / double(probe.calls), loop.outerNs};
}

double
SpanTracer::selfNs(unsigned slot, const Cost &cost) const
{
    double ns = 0.0;
    for (const auto &row : agg_) {
        const Agg &a = row[slot];
        ns += double(a.totalNs - a.childNs) - double(a.calls) * cost.innerNs -
              double(a.children) * (cost.outerNs - cost.innerNs);
    }
    return ns;
}

std::uint64_t
SpanTracer::calls(unsigned slot) const
{
    std::uint64_t n = 0;
    for (const auto &row : agg_)
        n += row[slot].calls;
    return n;
}

bool
SpanTracer::writeSamples(const std::string &path, const std::string &header,
                         const Cost &cost) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t base = records_.empty() ? 0 : records_.front().start;
    std::fprintf(f,
                 "{%s, \"span_cost_ns\": %.3f, \"sample_every_op\": %llu, "
                 "\"spans\": [",
                 header.c_str(), cost.innerNs,
                 static_cast<unsigned long long>(kSampleEvery));
    for (std::size_t i = 0; i < records_.size(); i++) {
        const Record &r = records_[i];
        std::fprintf(f,
                     "%s\n{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                     "\"op\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                     i ? "," : "", i, slotName(r.slot),
                     static_cast<long long>(r.parent),
                     static_cast<unsigned long long>(r.op),
                     static_cast<long long>(r.start - base),
                     static_cast<long long>(r.end - base));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
