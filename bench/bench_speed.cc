/**
 * @file
 * Host-speed microbenchmarks (google-benchmark). Not a paper figure.
 *
 * The codec benchmarks (BM_Lbe*, BM_CpackLine, ...) time the
 * compression layer that drives every sweep. BM_KvServe* measure
 * end-to-end requests/s through the full service stack (generator ->
 * front Llc -> tiered store -> value synthesis). BM_Touche* measure
 * lookups and fills through the signature-tag path (superblock match
 * -> signature match -> decompress-and-verify).
 *
 * tools/perf_gate.py gates every benchmark here against
 * bench/baselines/bench_speed.json, so a new benchmark must be
 * baselined before the gate passes.
 */

#include <benchmark/benchmark.h>

#include "cache/touche.hh"
#include "compress/cpack.hh"
#include "compress/fpc.hh"
#include "compress/huffman.hh"
#include "compress/lbe.hh"
#include "compress/tagcodec.hh"
#include "kv/service.hh"
#include "trace/value_model.hh"
#include "util/rng.hh"

namespace {

using namespace morc;

std::vector<CacheLine>
sampleLines(std::size_t n)
{
    trace::DataProfile p;
    p.zeroWordFrac = 0.25;
    p.zeroHalfFrac = 0.15;
    p.poolWordFrac = 0.4;
    p.chunk256Frac = 0.2;
    p.chunk128Frac = 0.2;
    trace::ValueModel vm(p);
    std::vector<CacheLine> lines;
    for (std::size_t i = 0; i < n; i++)
        lines.push_back(vm.line(i, 0));
    return lines;
}

void
BM_LbeAppend(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    comp::LbeEncoder enc;
    std::size_t i = 0;
    std::uint64_t log_bits = 0;
    for (auto _ : state) {
        const std::uint32_t bits = enc.append(lines[i]);
        benchmark::DoNotOptimize(bits);
        log_bits += bits;
        if (log_bits > 4096) { // one 512B log
            enc.reset();
            log_bits = 0;
        }
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_LbeAppend);

void
BM_LbeMeasure(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    comp::LbeEncoder enc;
    for (std::size_t i = 0; i < 64; i++)
        enc.append(lines[i]);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(enc.measure(lines[i]));
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_LbeMeasure);

void
BM_LbeTrial8(benchmark::State &state)
{
    // An unbounded trial battery: one shared LbeLinePlan scored in full
    // against eight independently warmed encoders, with no budget in
    // play. It prices the full-cost trials of LogCache::insert (lines
    // that fit, empty logs) and is the primary LBE perf-gate metric. It
    // is not an insert: most insert trials go to logs the line cannot
    // fit, and those stop at the budget (DESIGN.md §11).
    const auto lines = sampleLines(4096);
    std::vector<comp::LbeEncoder> encs(8);
    for (std::size_t e = 0; e < encs.size(); e++) {
        for (std::size_t i = 0; i < 64; i++)
            encs[e].append(lines[(e * 97 + i) % lines.size()]);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const comp::LbeLinePlan plan = comp::LbeLinePlan::of(lines[i]);
        std::uint64_t total = 0;
        for (auto &enc : encs)
            total += enc.measure(plan);
        benchmark::DoNotOptimize(total);
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_LbeTrial8);

void
BM_CpackLine(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(comp::CpackEncoder::lineBits(lines[i]));
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_CpackLine);

void
BM_FpcLine(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(comp::Fpc::lineBits(lines[i]));
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_FpcLine)->MinTime(2.0);

void
BM_HuffmanLineBits(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    comp::ValueSampler sampler(1024);
    for (const auto &l : lines)
        sampler.observe(l);
    const comp::HuffmanTable table = sampler.train();
    std::size_t i = 0;
    for (auto _ : state) {
        std::uint32_t bits = 0;
        for (unsigned w = 0; w < kWordsPerLine; w++)
            bits += table.bitsFor(lines[i].word32(w));
        benchmark::DoNotOptimize(bits);
        i = (i + 1) % lines.size();
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_HuffmanLineBits);

void
BM_TagCodec(benchmark::State &state)
{
    comp::TagCodec codec(2);
    Rng rng(5);
    std::uint64_t tag = 100000;
    for (auto _ : state) {
        tag += rng.below(64);
        benchmark::DoNotOptimize(codec.append(tag));
    }
}
BENCHMARK(BM_TagCodec);

void
BM_ValueModelLine(benchmark::State &state)
{
    trace::DataProfile p;
    trace::ValueModel vm(p);
    std::uint64_t ln = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.line(ln++, 0));
    }
    state.SetBytesProcessed(state.iterations() * kLineSize);
}
BENCHMARK(BM_ValueModelLine);

/** A small 2-tenant service so construction stays cheap enough to run
 *  per benchmark repetition family. */
kv::ServiceConfig
speedConfig(sim::Scheme scheme)
{
    kv::ServiceConfig cfg;
    cfg.scheme = scheme;
    cfg.frontBytes = 256 << 10;
    cfg.tier.dramBytes = 1 << 20;
    cfg.tier.ssdBytes = 4 << 20;
    // No working-set drift: iteration counts differ between runs, and
    // a drifting hot set would make the measured stream
    // non-stationary (the perf gate would see noise, not regressions).
    cfg.tenants.push_back({"hot", 65536, 1.1, 3, 0.1, 0, 0});
    cfg.tenants.push_back({"cold", 65536, 0.7, 1, 0.3, 0, 0});
    return cfg;
}

void
runService(benchmark::State &state, sim::Scheme scheme)
{
    kv::Service svc(speedConfig(scheme));
    svc.run(20'000); // warm the tiers past the cold-start transient
    for (auto _ : state)
        benchmark::DoNotOptimize(svc.step().latency);
    state.SetItemsProcessed(state.iterations());
}

// Longer measurement window than the default: one step is a whole
// request through the service stack, so per-iteration times are in
// microseconds and short windows are dominated by scheduler jitter.
void
BM_KvServeMorc(benchmark::State &state)
{
    runService(state, sim::Scheme::Morc);
}
BENCHMARK(BM_KvServeMorc)->MinTime(2.0);

void
BM_KvServeUncompressed(benchmark::State &state)
{
    runService(state, sim::Scheme::Uncompressed);
}
BENCHMARK(BM_KvServeUncompressed)->MinTime(2.0);

/** A warmed 128 KB Touché cache over a 4x-capacity address footprint:
 *  every superblock holds neighbors, so lookups exercise the signature
 *  compare and fills exercise eviction + re-compaction. */
cache::ToucheCache
warmedCache(const std::vector<CacheLine> &lines)
{
    cache::ToucheCache::Config cfg;
    cache::ToucheCache c(cfg);
    const std::size_t footprint = 4 * c.capacityBytes() / kLineSize;
    for (std::size_t i = 0; i < footprint; i++)
        c.insert(static_cast<Addr>(i) * kLineSize,
                 lines[i % lines.size()], false);
    return c;
}

void
BM_ToucheRead(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    cache::ToucheCache c = warmedCache(lines);
    const std::size_t footprint = 4 * c.capacityBytes() / kLineSize;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.read(static_cast<Addr>(i) * kLineSize).hit);
        i = (i + 7) % footprint; // stride past the superblock span
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ToucheRead)->MinTime(2.0);

void
BM_ToucheInsert(benchmark::State &state)
{
    const auto lines = sampleLines(4096);
    cache::ToucheCache c = warmedCache(lines);
    const std::size_t footprint = 4 * c.capacityBytes() / kLineSize;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.insert(static_cast<Addr>(i) * kLineSize,
                     lines[(i * 31) % lines.size()], false)
                .linesCompressed);
        i = (i + 7) % footprint;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ToucheInsert)->MinTime(2.0);

} // namespace

BENCHMARK_MAIN();
