/**
 * @file
 * Tests for the synthetic workload substrate, including digests that
 * pin every byte the value models synthesize.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/value_model.hh"
#include "trace/workload.hh"

namespace morc {
namespace trace {
namespace {

TEST(ValueModel, DeterministicPerAddressAndVersion)
{
    const DataProfile p{};
    ValueModel m(p);
    EXPECT_EQ(m.line(42, 0), m.line(42, 0));
    EXPECT_EQ(m.line(42, 3), m.line(42, 3));
    // Different lines and versions diverge (overwhelmingly likely).
    EXPECT_FALSE(m.line(42, 0) == m.line(43, 0));
    EXPECT_FALSE(m.line(42, 0) == m.line(42, 1));
}

TEST(ValueModel, SharedSeedSharesValues)
{
    DataProfile a{}, b{};
    a.seed = b.seed = 777;
    ValueModel ma(a), mb(b);
    EXPECT_EQ(ma.line(1000, 0), mb.line(1000, 0));
}

TEST(ValueModel, ZeroLineFraction)
{
    DataProfile p{};
    p.zeroLineFrac = 0.5;
    ValueModel m(p);
    unsigned zeros = 0;
    for (std::uint64_t l = 0; l < 2000; l++) {
        if (m.line(l, 0).isZero())
            zeros++;
    }
    EXPECT_NEAR(zeros / 2000.0, 0.5, 0.06);
}

TEST(ValueModel, ZeroWordFraction)
{
    DataProfile p{};
    p.zeroLineFrac = 0.0;
    p.zeroWordFrac = 0.4;
    p.poolWordFrac = 0.0;
    p.smallWordFrac = 0.0;
    p.chunk256Frac = 0.0;
    p.chunk128Frac = 0.0;
    ValueModel m(p);
    std::uint64_t zero_words = 0, total = 0;
    for (std::uint64_t l = 0; l < 2000; l++) {
        const CacheLine line = m.line(l, 0);
        for (unsigned w = 0; w < kWordsPerLine; w++) {
            total++;
            if (line.word32(w) == 0)
                zero_words++;
        }
    }
    EXPECT_NEAR(static_cast<double>(zero_words) / total, 0.4, 0.05);
}

TEST(ValueModel, PoolDuplicationIsRegionScoped)
{
    DataProfile p{};
    p.zeroLineFrac = 0;
    p.zeroWordFrac = 0;
    p.smallWordFrac = 0;
    p.poolWordFrac = 1.0;
    p.globalPoolFrac = 0.0;
    p.regionPoolSize = 32;
    p.regionBytes = 4096;
    ValueModel m(p);
    // Lines within one region share <=32 distinct words.
    std::set<std::uint32_t> within;
    for (std::uint64_t l = 0; l < 64; l++) { // one 4 KB region
        const CacheLine line = m.line(l, 0);
        for (unsigned w = 0; w < kWordsPerLine; w++)
            within.insert(line.word32(w));
    }
    EXPECT_LE(within.size(), 32u);
    // Distant regions use different slices.
    std::set<std::uint32_t> across = within;
    for (std::uint64_t l = 1000000; l < 1000064; l++) {
        const CacheLine line = m.line(l, 0);
        for (unsigned w = 0; w < kWordsPerLine; w++)
            across.insert(line.word32(w));
    }
    EXPECT_GT(across.size(), within.size());
}

TEST(ValueModel, GlobalPoolSharedAcrossRegions)
{
    DataProfile p{};
    p.zeroLineFrac = 0;
    p.zeroWordFrac = 0;
    p.smallWordFrac = 0;
    p.poolWordFrac = 1.0;
    p.globalPoolFrac = 1.0;
    p.globalPoolSize = 16;
    ValueModel m(p);
    std::set<std::uint32_t> distinct;
    for (std::uint64_t l = 0; l < 10000; l += 97) {
        const CacheLine line = m.line(l, 0);
        for (unsigned w = 0; w < kWordsPerLine; w++)
            distinct.insert(line.word32(w));
    }
    EXPECT_LE(distinct.size(), 16u);
}

TEST(ValueModel, ChunkPoolRepeats256BitChunks)
{
    DataProfile p{};
    p.zeroLineFrac = 0;
    p.chunk256Frac = 1.0;
    p.chunk256Pool = 8;
    ValueModel m(p);
    // Chunk vocabularies are region-scoped: stay within one region.
    std::set<std::string> chunks;
    const std::uint64_t lines_per_region = p.regionBytes / kLineSize;
    for (std::uint64_t l = 0; l < lines_per_region; l++) {
        const CacheLine line = m.line(l, 0);
        for (unsigned c = 0; c < 2; c++) {
            chunks.emplace(
                reinterpret_cast<const char *>(line.bytes.data()) + c * 32,
                32);
        }
    }
    EXPECT_LE(chunks.size(), 8u);
    // A distant region uses a different chunk vocabulary.
    std::set<std::string> other = chunks;
    for (std::uint64_t l = 100 * lines_per_region;
         l < 101 * lines_per_region; l++) {
        const CacheLine line = m.line(l, 0);
        for (unsigned c = 0; c < 2; c++) {
            other.emplace(
                reinterpret_cast<const char *>(line.bytes.data()) + c * 32,
                32);
        }
    }
    EXPECT_GT(other.size(), chunks.size());
}

TEST(ValueModel, StoreChurnPreservesSomeWords)
{
    DataProfile p{};
    p.zeroLineFrac = 0;
    p.storeChurn = 0.3;
    ValueModel m(p);
    unsigned preserved = 0, total = 0;
    for (std::uint64_t l = 0; l < 200; l++) {
        const CacheLine v0 = m.line(l, 0);
        const CacheLine v1 = m.line(l, 1);
        for (unsigned w = 0; w < kWordsPerLine; w++) {
            total++;
            if (v0.word32(w) == v1.word32(w))
                preserved++;
        }
    }
    EXPECT_GT(static_cast<double>(preserved) / total, 0.5);
}

TEST(ThreadTrace, DeterministicStream)
{
    const BenchmarkSpec &spec = findBenchmark("gcc");
    ThreadTrace a(spec, 0), b(spec, 0);
    for (int i = 0; i < 1000; i++) {
        const MemRef ra = a.next(), rb = b.next();
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(ra.write, rb.write);
        ASSERT_EQ(ra.gap, rb.gap);
    }
}

TEST(ThreadTrace, AddressSpaceIsolation)
{
    const BenchmarkSpec &spec = findBenchmark("astar");
    ThreadTrace t0(spec, 0), t5(spec, 5);
    EXPECT_NE(t0.addrBase(), t5.addrBase());
    for (int i = 0; i < 1000; i++) {
        EXPECT_EQ(t0.next().addr >> 40, t0.addrBase() >> 40);
        EXPECT_EQ(t5.next().addr >> 40, t5.addrBase() >> 40);
    }
}

TEST(ThreadTrace, MemFracControlsGaps)
{
    BenchmarkSpec spec = findBenchmark("gcc");
    spec.access.memFrac = 0.25;
    ThreadTrace t(spec, 0);
    std::uint64_t instrs = 0, refs = 0;
    for (int i = 0; i < 50000; i++) {
        const MemRef r = t.next();
        instrs += r.gap + 1;
        refs++;
    }
    EXPECT_NEAR(static_cast<double>(refs) / instrs, 0.25, 0.02);
}

TEST(ThreadTrace, StoreFraction)
{
    BenchmarkSpec spec = findBenchmark("gcc");
    spec.access.storeFrac = 0.3;
    ThreadTrace t(spec, 0);
    unsigned writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; i++)
        writes += t.next().write ? 1 : 0;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.3, 0.02);
}

TEST(ThreadTrace, FootprintStaysWithinWorkingSet)
{
    BenchmarkSpec spec = findBenchmark("dealII");
    ThreadTrace t(spec, 0);
    for (int i = 0; i < 100000; i++) {
        const Addr off = t.next().addr - t.addrBase();
        ASSERT_LT(off, spec.access.wsBytes);
    }
}

TEST(Registry, AllBaseBenchmarksPresent)
{
    EXPECT_EQ(spec2006().size(), 28u);
    std::set<std::string> names;
    for (const auto &b : spec2006())
        names.insert(b.name);
    EXPECT_EQ(names.size(), 28u);
    EXPECT_TRUE(names.count("gcc"));
    EXPECT_TRUE(names.count("zeusmp"));
    EXPECT_TRUE(names.count("cactusADM"));
}

TEST(Registry, Figure6Has54Workloads)
{
    const auto w = figure6Workloads();
    EXPECT_EQ(w.size(), 54u);
    EXPECT_EQ(w[0].name, "astar");
    EXPECT_EQ(w[1].name, "astar_1");
    EXPECT_EQ(w.back().name, "zeusmp");
}

TEST(Registry, VariantsDifferButShareSeed)
{
    const BenchmarkSpec base = findBenchmark("bzip2");
    const BenchmarkSpec v1 = makeVariant(base, 1);
    const BenchmarkSpec v2 = makeVariant(base, 2);
    EXPECT_EQ(v1.name, "bzip2_1");
    EXPECT_EQ(v1.data.seed, base.data.seed);
    EXPECT_NE(v1.access.wsBytes, v2.access.wsBytes);
    // Deterministic.
    EXPECT_EQ(makeVariant(base, 1).access.wsBytes, v1.access.wsBytes);
}

TEST(Registry, ResolveWorkloadHandlesVariants)
{
    EXPECT_EQ(resolveWorkload("gcc").name, "gcc");
    EXPECT_EQ(resolveWorkload("gcc_3").name, "gcc_3");
}

TEST(Registry, Table6Structure)
{
    const auto &t6 = table6Workloads();
    ASSERT_EQ(t6.size(), 12u);
    for (const auto &mp : t6) {
        EXPECT_EQ(mp.programs.size(), 16u) << mp.name;
        for (const auto &p : mp.programs)
            resolveWorkload(p); // must not abort
    }
    EXPECT_EQ(t6[0].name, "M0");
    EXPECT_EQ(t6[4].name, "S0");
    for (const auto &p : t6[5].programs)
        EXPECT_EQ(p, "bzip2"); // S1 replicates bzip2
}

// ------------------------------------------------ synthesized-line digests
//
// Every choice the value models make is a threshold test on the unit
// draw of a hash. The digests below fold the bytes of 4096 random
// (line, version) pairs per profile, plus lines built so that one draw
// lands just below, on and just above each threshold's integer edge
// ceil(f * 2^53): a random pair meets an edge with probability 2^-53,
// so only built lines notice an edge that moved by one. Building them
// inverts the models' hash cascade (splitmix64 is a bijection), so the
// salts here repeat those in value_model.cc.

constexpr std::uint64_t kSaltLine = 0x11c7;
constexpr std::uint64_t kSaltWord = 0x3091d;
constexpr std::uint64_t kSaltKvClass = 0x6b76c1a5;
constexpr std::uint64_t kSaltKvLine = 0x6b76117e;
constexpr std::uint64_t kSaltKvChurn = 0x6b76c402;

/** Built lines per edge draw (the 11 bits a unit draw ignores). */
constexpr unsigned kEdgeVariants = 32;

std::uint64_t
inverseOdd(std::uint64_t m)
{
    std::uint64_t x = m; // Newton: correct bits double per step
    for (int i = 0; i < 6; i++)
        x *= 2 - m * x;
    return x;
}

/** The x with x ^ (x >> s) == y. */
std::uint64_t
unshiftXor(std::uint64_t y, unsigned s)
{
    std::uint64_t x = y;
    for (unsigned done = s; done < 64; done += s)
        x = y ^ (x >> s);
    return x;
}

/** The x with splitmix64(x) == y. */
std::uint64_t
unsplitmix64(std::uint64_t y)
{
    std::uint64_t z = unshiftXor(y, 31) * inverseOdd(0x94d049bb133111ebull);
    z = unshiftXor(z, 27) * inverseOdd(0xbf58476d1ce4e5b9ull);
    return unshiftXor(z, 30) - 0x9e3779b97f4a7c15ull;
}

/** The a with mix64(a, b) == h. */
std::uint64_t
unmixFirst(std::uint64_t h, std::uint64_t b)
{
    return unsplitmix64(h) ^ splitmix64(b);
}

/** The b with mix64(a, b) == h. */
std::uint64_t
unmixSecond(std::uint64_t a, std::uint64_t h)
{
    return unsplitmix64(unsplitmix64(h) ^ a);
}

/** Hashes whose unit draw is ceil(f * 2^53) - 1, that edge, and one
 *  above it, each with kEdgeVariants settings of the ignored bits. */
std::vector<std::uint64_t>
edgeHashes(double f)
{
    std::vector<std::uint64_t> out;
    if (!(f > 0.0) || f >= 1.0)
        return out;
    const auto edge =
        static_cast<std::uint64_t>(std::ceil(std::ldexp(f, 53)));
    for (std::uint64_t x = edge - 1; x <= edge + 1; x++) {
        if (x >> 53)
            continue;
        for (std::uint64_t low = 0; low < kEdgeVariants; low++)
            out.push_back(x << 11 | low);
    }
    return out;
}

void
fold(std::uint64_t &digest, const CacheLine &l)
{
    for (unsigned w = 0; w < kWordsPerLine / 2; w++)
        digest = mix64(digest, l.word64(w));
}

/** Every profile the registry resolves: the bases, Figure 6's
 *  variants and Table 6's mixes, by name. */
std::map<std::string, DataProfile>
knownProfiles()
{
    std::map<std::string, DataProfile> out;
    for (const auto &b : spec2006())
        out[b.name] = b.data;
    for (const auto &b : figure6Workloads())
        out[b.name] = b.data;
    for (const auto &mp : table6Workloads())
        for (const auto &name : mp.programs)
            out[name] = resolveWorkload(name).data;
    return out;
}

/** Lines of @p p whose draw at each threshold sits on its edge. */
std::vector<std::pair<std::uint64_t, std::uint32_t>>
edgeLines(const DataProfile &p)
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    const auto lineOf = [&](std::uint64_t hline, std::uint32_t version) {
        out.emplace_back(
            unmixFirst(unmixSecond(p.seed ^ kSaltLine, hline), version),
            version);
    };
    // Cascade position of the k-th built line: chunk, half and word.
    const auto hchunkToLine = [&](std::uint64_t hchunk, unsigned k) {
        lineOf(unmixFirst(hchunk, (k & 1) + 1), 0);
    };
    const auto hhalfToLine = [&](std::uint64_t hhalf, unsigned k) {
        hchunkToLine(unmixFirst(hhalf, ((k >> 1) & 1) + 3), k);
    };
    const auto wordToLine = [&](std::uint64_t h, unsigned k) {
        hhalfToLine(unmixFirst(h, kSaltWord + ((k >> 2) & 3)), k);
    };
    unsigned k = 0;
    for (std::uint64_t h : edgeHashes(p.zeroLineFrac))
        lineOf(h, 0);
    for (std::uint64_t h : edgeHashes(p.chunk256Frac))
        hchunkToLine(h, k++);
    for (std::uint64_t h : edgeHashes(p.chunk128Frac))
        hhalfToLine(h, k++);
    for (std::uint64_t h : edgeHashes(p.zeroHalfFrac))
        hhalfToLine(unsplitmix64(h) ^ 0x2e20, k++);
    double band = 0.0;
    for (double f : {p.zeroWordFrac, p.poolWordFrac, p.smallWordFrac,
                     p.fpWordFrac}) {
        band += f;
        for (std::uint64_t h : edgeHashes(band))
            wordToLine(h, k++);
    }
    for (std::uint64_t h : edgeHashes(p.globalPoolFrac))
        wordToLine(unsplitmix64(h) ^ 0x9a7, k++);
    for (std::uint64_t h : edgeHashes(p.storeChurn))
        lineOf(unmixFirst(h, 0xc4u + (k++ & 15)), 1);
    return out;
}

TEST(ValueModel, SynthesizedLinesMatchPinnedDigest)
{
    std::uint64_t sampled = 0, edges = 0;
    for (const auto &[name, profile] : knownProfiles()) {
        const ValueModel m(profile);
        for (std::uint64_t i = 0; i < 4096; i++) {
            const std::uint32_t versions[3] = {0, 1, 7};
            fold(sampled, m.line(mix64(0x1e57, i) >> 40, versions[i % 3]));
        }
        for (const auto &[line, version] : edgeLines(profile))
            fold(edges, m.line(line, version));
    }
    EXPECT_EQ(sampled, 0x13a1b2203876511dull);
    EXPECT_EQ(edges, 0x00a00db6d5029663ull);
}

/** Keys of each class: built so a draw sits on each threshold's edge,
 *  kept when classOf() puts the key in the class the draw needs. */
std::vector<std::pair<std::uint64_t, std::uint32_t>>
kvEdgeKeys(const KvValueModel &m)
{
    const KvProfile &p = m.profile();
    std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
    for (double f : {p.jsonFrac, p.jsonFrac + p.counterFrac}) {
        for (std::uint64_t h : edgeHashes(f))
            out.emplace_back(unmixSecond(p.seed ^ kSaltKvClass, h), 0);
    }
    const auto keyOf = [&](std::uint64_t hline, ValueClass want,
                           std::uint32_t version) {
        const std::uint64_t key =
            unmixFirst(unmixSecond(p.seed ^ kSaltKvLine, hline), 0);
        if (m.classOf(key) == want)
            out.emplace_back(key, version);
    };
    unsigned k = 0;
    for (double f : {0.15, 0.70, 0.90}) {
        for (std::uint64_t h : edgeHashes(f))
            keyOf(unmixFirst(h, (k++ & 15) + 1), ValueClass::JsonLike, 0);
    }
    for (std::uint64_t h : edgeHashes(0.25)) {
        keyOf(unmixFirst(h, 0x90 + (k++ & 15)), ValueClass::CounterDense,
              0);
    }
    for (std::uint64_t h : edgeHashes(p.setChurn)) {
        const std::uint64_t hv = unmixFirst(h, k++ & 15);
        keyOf(unmixFirst(hv, 1) ^ kSaltKvChurn, ValueClass::JsonLike, 1);
    }
    return out;
}

TEST(KvValueModel, SynthesizedLinesMatchPinnedDigest)
{
    const KvValueModel m{KvProfile{}};
    std::uint64_t sampled[3] = {0, 0, 0}, edges = 0;
    std::uint64_t made[3] = {0, 0, 0};
    for (std::uint64_t key = 0; made[0] + made[1] + made[2] < 3 * 4096;
         key++) {
        const auto c = static_cast<unsigned>(m.classOf(key));
        if (made[c] == 4096)
            continue;
        const std::uint32_t versions[3] = {0, 1, 7};
        fold(sampled[c], m.line(key, static_cast<std::uint32_t>(
                                        made[c] % m.valueLines(key)),
                               versions[made[c] % 3]));
        made[c]++;
    }
    for (const auto &[key, version] : kvEdgeKeys(m))
        fold(edges, m.line(key, 0, version));
    EXPECT_EQ(sampled[0], 0xebbcebda9b584c47ull) << "json";
    EXPECT_EQ(sampled[1], 0xbccfce79db6d0c42ull) << "counter";
    EXPECT_EQ(sampled[2], 0x19ec6e31aa552962ull) << "blob";
    EXPECT_EQ(edges, 0xeff7e4f28f3dc601ull);
}

} // namespace
} // namespace trace
} // namespace morc
