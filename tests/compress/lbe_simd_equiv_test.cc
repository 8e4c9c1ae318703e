/**
 * @file
 * Differential tests for the SIMD kernels behind the LBE hot path and
 * for the encoder built on them. Every kernel (findU32, findU64,
 * zeroMask8, hashFind8) — SSE2 on x86-64, the scalar reference in the
 * force-scalar build and on other targets — is checked against an
 * independent scalar reference written here, on adversarial inputs:
 * empty/odd-sized arrays, keys at every position, duplicates (first
 * match must win), vector-width boundaries, hash groups overflowing
 * into their neighbors. The full encoder is then run over adversarial
 * line streams (all-zero, all-match, dictionary-full, u8/u16-truncatable,
 * chunk-boundary patterns), and a digest of its streams, trial scores
 * and symbol statistics must equal a constant, so the default and the
 * force-scalar builds (the CI matrix) are pinned to the same bits. The
 * "levels" in the test names are these two builds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "compress/lbe.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace morc {
namespace {

// ---------------------------------------------------------------------
// Kernel-level differentials
// ---------------------------------------------------------------------

int
refFindU32(const std::vector<std::uint32_t> &a, std::uint32_t key)
{
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

int
refFindU64(const std::vector<std::uint64_t> &a, std::uint64_t key)
{
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

TEST(LbeSimdEquiv, FindU32AllLevelsAllPositions)
{
    Rng rng(11);
    // Sizes straddling the vector width (4 x u32 for SSE2) and its
    // multiples, including the empty array and non-multiple tails.
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                          17u, 31u, 33u, 127u}) {
        std::vector<std::uint32_t> a(n);
        for (auto &v : a)
            v = static_cast<std::uint32_t>(rng.next());
        if (n >= 8) {
            a[n / 2] = a[1]; // duplicate: first match must win
            a[n - 1] = a[0];
        }
        std::vector<std::uint32_t> keys;
        for (std::size_t i = 0; i < n; i++)
            keys.push_back(a[i]);
        keys.push_back(0xdeadbeefu); // absent (vanishing collision odds)
        keys.push_back(0);
        for (std::uint32_t key : keys) {
            EXPECT_EQ(simd::findU32(a.data(), n, key), refFindU32(a, key))
                << "n=" << n << " key=" << key;
        }
    }
}

TEST(LbeSimdEquiv, FindU64AllLevelsAllPositions)
{
    Rng rng(13);
    for (std::size_t n :
         {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 63u}) {
        std::vector<std::uint64_t> a(n);
        for (auto &v : a)
            v = rng.next();
        if (n >= 4) {
            a[n / 2] = a[0]; // duplicate: first match must win
            a[n - 1] = a[1];
        }
        std::vector<std::uint64_t> keys(a);
        keys.push_back(0x0123456789abcdefull);
        keys.push_back(0);
        for (std::uint64_t key : keys) {
            EXPECT_EQ(simd::findU64(a.data(), n, key), refFindU64(a, key))
                << "n=" << n << " key=" << key;
        }
    }
}

TEST(LbeSimdEquiv, ZeroMask8AllPatternsAllLevels)
{
    Rng rng(17);
    // All 256 zero/nonzero lane patterns.
    for (unsigned pattern = 0; pattern < 256; pattern++) {
        std::uint32_t w[8];
        for (unsigned i = 0; i < 8; i++) {
            if ((pattern >> i) & 1) {
                w[i] = 0;
            } else {
                std::uint32_t v;
                do {
                    v = static_cast<std::uint32_t>(rng.next());
                } while (v == 0);
                w[i] = v;
            }
        }
        EXPECT_EQ(simd::zeroMask8(w), pattern);
    }
}

/**
 * Test-side mirror of the encoder's hash-table insertion discipline:
 * home group by Fibonacci hash, first empty slot scanning groups in
 * sequence (hashFind8's documented contract).
 */
struct RefHashTable
{
    std::vector<std::uint32_t> slots;
    unsigned groupsLog2;

    explicit RefHashTable(unsigned groups_log2)
        : slots(std::size_t{8} << groups_log2, 0), groupsLog2(groups_log2)
    {}

    void
    insert(std::uint32_t v)
    {
        ASSERT_NE(v, 0u);
        const unsigned gmask = (1u << groupsLog2) - 1;
        unsigned g = simd::hashGroup(v, groupsLog2);
        for (unsigned probes = 0; probes <= gmask; probes++) {
            for (unsigned k = 0; k < 8; k++) {
                if (slots[std::size_t{g} * 8 + k] == 0) {
                    slots[std::size_t{g} * 8 + k] = v;
                    return;
                }
            }
            g = (g + 1) & gmask;
        }
        FAIL() << "table full";
    }

    /** Reference probe implementing the documented group semantics. */
    int
    find(std::uint32_t v) const
    {
        const unsigned gmask = (1u << groupsLog2) - 1;
        unsigned g = simd::hashGroup(v, groupsLog2);
        for (unsigned probes = 0; probes <= gmask; probes++) {
            bool empty = false;
            for (unsigned k = 0; k < 8; k++) {
                const std::size_t s = std::size_t{g} * 8 + k;
                if (slots[s] == v)
                    return static_cast<int>(s);
                if (slots[s] == 0)
                    empty = true;
            }
            if (empty)
                return -1;
            g = (g + 1) & gmask;
        }
        return -1;
    }
};

/** Find @p count distinct nonzero values all hashing to @p group. */
std::vector<std::uint32_t>
valuesInGroup(unsigned group, unsigned groups_log2, unsigned count)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t v = 1; out.size() < count; v++) {
        if (simd::hashGroup(v, groups_log2) == group)
            out.push_back(v);
    }
    return out;
}

void
checkHashFind8(const RefHashTable &t, const std::uint32_t *w,
               unsigned skip)
{
    int want[8];
    for (unsigned i = 0; i < 8; i++)
        want[i] = ((skip >> i) & 1) ? 123456 : t.find(w[i]);
    int got[8];
    for (int &g : got)
        g = 123456; // skipped lanes must stay untouched
    simd::hashFind8(t.slots.data(), t.groupsLog2, w, skip, got);
    for (unsigned i = 0; i < 8; i++)
        EXPECT_EQ(got[i], want[i]) << "lane " << i << " skip=" << skip;
}

TEST(LbeSimdEquiv, HashFind8PresentAbsentAllLevels)
{
    RefHashTable t(3); // 8 groups x 8 slots
    std::vector<std::uint32_t> vals;
    Rng rng(23);
    while (vals.size() < 20) { // < 50% load, like the encoder
        const auto v = static_cast<std::uint32_t>(rng.next());
        if (v != 0 && refFindU32(vals, v) < 0)
            vals.push_back(v);
    }
    for (std::uint32_t v : vals)
        t.insert(v);

    std::uint32_t w[8];
    for (unsigned i = 0; i < 8; i++)
        w[i] = vals[i];
    checkHashFind8(t, w, 0); // all present
    for (unsigned i = 0; i < 8; i++)
        w[i] = (i & 1) ? vals[10 + i] : 0xfeedf00du + i;
    checkHashFind8(t, w, 0); // present/absent mix
    checkHashFind8(t, w, 0xa5); // skip-mask lanes stay untouched
    checkHashFind8(t, w, 0xff); // fully skipped call
}

TEST(LbeSimdEquiv, HashFind8GroupOverflowProbesNeighbor)
{
    // 4 groups x 8 slots; 11 values homed in group 1 overflow into
    // groups 2 and 3. Probes must follow the same trail, and an absent
    // value homed in the full group 1 must keep probing until it sees
    // an empty slot (group 3) rather than concluding absence early.
    const unsigned kLog2 = 2;
    RefHashTable t(kLog2);
    const std::vector<std::uint32_t> vals = valuesInGroup(1, kLog2, 12);
    for (unsigned i = 0; i + 1 < vals.size(); i++)
        t.insert(vals[i]); // 11 inserted, the 12th stays absent

    std::uint32_t w[8];
    for (unsigned i = 0; i < 8; i++)
        w[i] = vals[i];
    checkHashFind8(t, w, 0); // hits in home group and overflow groups
    w[0] = vals[8];
    w[1] = vals[9];
    w[2] = vals[10];
    w[3] = vals[11]; // absent, home group full: must probe onward
    checkHashFind8(t, w, 0);
}

TEST(LbeSimdEquiv, HashFind8SingleGroupTable)
{
    RefHashTable t(0); // groupsLog2 = 0: one group, wraps to itself
    t.insert(7);
    t.insert(9);
    const std::uint32_t w[8] = {7, 9, 8, 7, 0x7777u, 9, 1, 2};
    checkHashFind8(t, w, 0);
    checkHashFind8(t, w, 0x42);
}

// ---------------------------------------------------------------------
// Full-encoder digests, shared by every build
// ---------------------------------------------------------------------

/**
 * Deterministic adversarial stream: all-zero lines, self-similar lines
 * that match at every granularity, u8/u16-truncatable words, values
 * straddling 64/128/256-bit chunk boundaries, and enough distinct
 * random words to drive the dictionary to capacity and keep it there.
 */
std::vector<CacheLine>
adversarialStream(std::uint64_t seed, int lines)
{
    Rng rng(seed);
    std::vector<CacheLine> out;
    std::vector<CacheLine> history;
    for (int n = 0; n < lines; n++) {
        CacheLine l{};
        switch (n % 7) {
          case 0: // all zero
            break;
          case 1: { // one 64-bit pattern tiled: m64/m128/m256 ladders
            const auto a = static_cast<std::uint32_t>(rng.next());
            const auto b = static_cast<std::uint32_t>(rng.next());
            for (unsigned w = 0; w < kWordsPerLine; w += 2) {
                l.setWord32(w, a);
                l.setWord32(w + 1, b);
            }
            break;
          }
          case 2: { // u8/u16/u32 significance edges
            static const std::uint32_t kEdges[] = {
                0x1,    0xff,     0x100,     0xffff,
                0x10000, 0xffffff, 0x1000000, 0xffffffff,
            };
            for (unsigned w = 0; w < kWordsPerLine; w++)
                l.setWord32(w, kEdges[rng.below(std::size(kEdges))]);
            break;
          }
          case 3: // exact replay of an earlier line (all-match path)
            if (!history.empty()) {
                l = history[rng.below(history.size())];
                break;
            }
            [[fallthrough]];
          case 4: { // zero/nonzero straddling each chunk boundary
            const auto v = static_cast<std::uint32_t>(rng.next());
            for (unsigned w = 0; w < kWordsPerLine; w++)
                l.setWord32(w, ((w / 2) & 1) ? v + w : 0);
            break;
          }
          case 5: // small value pool (dictionary- and node-friendly)
            for (unsigned w = 0; w < kWordsPerLine; w++) {
                l.setWord32(w, 0xabcd0000u + static_cast<std::uint32_t>(
                                                 rng.below(5)));
            }
            break;
          default: // distinct random words: fills the dictionary
            for (unsigned w = 0; w < kWordsPerLine; w++)
                l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
            break;
        }
        history.push_back(l);
        out.push_back(l);
    }
    return out;
}

/** Everything a kernel implementation could possibly influence. */
struct EncodeRun
{
    std::vector<std::uint32_t> trialScores;
    std::vector<std::uint32_t> appendBits;
    std::vector<std::uint64_t> streamWords;
    std::uint64_t streamBits = 0;
    comp::LbeStats trialStats;
    comp::LbeStats commitStats;
};

EncodeRun
runStream(const std::vector<CacheLine> &stream, const comp::LbeConfig &cfg)
{
    EncodeRun r;
    comp::LbeEncoder enc(cfg);
    BitWriter out;
    for (const CacheLine &l : stream) {
        r.trialScores.push_back(enc.measure(l, &r.trialStats));
        r.appendBits.push_back(enc.append(l, &out));
    }
    r.streamWords = out.words();
    r.streamBits = out.sizeBits();
    r.commitStats = enc.stats();
    return r;
}

/** FNV-1a over the little-endian bytes of @p v, chained from @p h. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; b++) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::uint64_t
mix(std::uint64_t h, const std::vector<T> &xs)
{
    h = mix(h, xs.size());
    for (const T x : xs)
        h = mix(h, x);
    return h;
}

std::uint64_t
mix(std::uint64_t h, const comp::LbeStats &st)
{
    for (const std::uint64_t c : st.count)
        h = mix(h, c);
    for (const std::uint64_t z : st.zeroCount)
        h = mix(h, z);
    return h;
}

/** Digest of everything an EncodeRun holds; each vector is length-
 *  prefixed, so moving a value between fields also moves the digest. */
std::uint64_t
digest(const EncodeRun &r)
{
    std::uint64_t h = 1469598103934665603ull;
    h = mix(h, r.trialScores);
    h = mix(h, r.appendBits);
    h = mix(h, r.streamWords);
    h = mix(h, r.streamBits);
    h = mix(h, r.trialStats);
    h = mix(h, r.commitStats);
    return h;
}

// The constants below are what every kernel implementation (scalar,
// SSE2 and the retired AVX2) has emitted: a build that misses one
// changed an emitted bit.

TEST(LbeSimdEquiv, EncoderBitIdenticalAcrossLevels)
{
    // 800 lines of the mixed stream drive the 127-entry dictionary to
    // capacity many times over, so the full-dictionary path is covered.
    const EncodeRun r =
        runStream(adversarialStream(31, 800), comp::LbeConfig{});
    EXPECT_EQ(digest(r), 0x6c9e81a4e3baedc4ull);
}

TEST(LbeSimdEquiv, EncoderBitIdenticalAcrossLevelsStarvedConfig)
{
    // Tiny tables: capacity freezes and the narrowest pointer widths.
    comp::LbeConfig cfg;
    cfg.dictBytes = 32;
    cfg.nodes64 = 3;
    cfg.nodes128 = 1;
    cfg.nodes256 = 1;
    const EncodeRun r = runStream(adversarialStream(37, 400), cfg);
    EXPECT_EQ(digest(r), 0x248015f77098ba7dull);
}

} // namespace
} // namespace morc
