/**
 * @file
 * Unit and property tests for Large-Block Encoding.
 */

#include <gtest/gtest.h>

#include <vector>

#include "compress/lbe.hh"
#include "util/rng.hh"

namespace morc {
namespace comp {
namespace {

CacheLine
lineOfWords(std::uint32_t w)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, w);
    return l;
}

CacheLine
randomLine(Rng &rng)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, static_cast<std::uint32_t>(rng.next()));
    return l;
}

TEST(Lbe, ZeroLineCompressesToTwoZ256)
{
    LbeEncoder enc;
    const CacheLine zero{};
    // Two 256-bit chunks, each a 5-bit z256 symbol.
    EXPECT_EQ(enc.measure(zero), 10u);
    EXPECT_EQ(enc.append(zero), 10u);
    EXPECT_EQ(enc.stats().count[static_cast<int>(LbeSymbol::Z256)], 2u);
}

TEST(Lbe, MeasureMatchesAppend)
{
    LbeEncoder enc;
    Rng rng(42);
    for (int i = 0; i < 200; i++) {
        CacheLine l = randomLine(rng);
        // Sprinkle structure: zero some words, duplicate others.
        for (unsigned w = 0; w < kWordsPerLine; w++) {
            if (rng.chance(0.3))
                l.setWord32(w, 0);
            else if (rng.chance(0.3))
                l.setWord32(w, l.word32(rng.below(kWordsPerLine)));
        }
        const std::uint32_t measured = enc.measure(l);
        const std::uint32_t appended = enc.append(l);
        ASSERT_EQ(measured, appended) << "line " << i;
    }
}

TEST(Lbe, MeasureDoesNotMutate)
{
    LbeEncoder enc;
    Rng rng(7);
    const CacheLine probe = randomLine(rng);
    const std::uint32_t before = enc.measure(probe);
    for (int i = 0; i < 50; i++)
        enc.measure(randomLine(rng));
    EXPECT_EQ(enc.measure(probe), before);
}

TEST(Lbe, RepeatedLineMatchesAtLargeGranularity)
{
    LbeEncoder enc;
    Rng rng(1);
    const CacheLine l = randomLine(rng);
    enc.append(l);
    // Second copy: both chunks match m256 (code 5 bits + pointer).
    const std::uint32_t second = enc.append(l);
    EXPECT_EQ(second, 2u * (5u + enc.config().ptrBits256()));
    EXPECT_EQ(enc.stats().count[static_cast<int>(LbeSymbol::M256)], 2u);
}

TEST(Lbe, IncompressibleCostsBoundedOverhead)
{
    LbeEncoder enc;
    Rng rng(3);
    const CacheLine l = randomLine(rng);
    const std::uint32_t bits = enc.append(l);
    // 16 unique random words: at worst u32 each = 16 * 34 = 544.
    EXPECT_LE(bits, 16u * 34u);
    EXPECT_GE(bits, 16u * 32u); // can't beat entropy of random data
}

TEST(Lbe, SmallValuesUseTruncatedSymbols)
{
    LbeEncoder enc;
    CacheLine l{};
    l.setWord32(0, 0x7f);    // u8
    l.setWord32(1, 0x1234);  // u16
    l.setWord32(2, 0x123456); // u32 (3 significant bytes still u32)
    enc.append(l);
    EXPECT_EQ(enc.stats().count[static_cast<int>(LbeSymbol::U8)], 1u);
    EXPECT_EQ(enc.stats().count[static_cast<int>(LbeSymbol::U16)], 1u);
    EXPECT_EQ(enc.stats().count[static_cast<int>(LbeSymbol::U32)], 1u);
}

TEST(Lbe, ResetForgetsDictionary)
{
    LbeEncoder enc;
    Rng rng(11);
    const CacheLine l = randomLine(rng);
    const std::uint32_t first = enc.append(l);
    enc.reset();
    EXPECT_EQ(enc.append(l), first);
}

TEST(Lbe, RoundTripStream)
{
    LbeEncoder enc;
    LbeDecoder dec;
    BitWriter out;
    Rng rng(1234);
    std::vector<CacheLine> lines;
    for (int i = 0; i < 300; i++) {
        CacheLine l;
        switch (rng.below(5)) {
          case 0:
            l = CacheLine{};
            break;
          case 1:
            l = lineOfWords(static_cast<std::uint32_t>(rng.below(100)));
            break;
          case 2:
            l = randomLine(rng);
            break;
          case 3:
            // Mixed zeros and small pool values.
            for (unsigned w = 0; w < kWordsPerLine; w++) {
                l.setWord32(w, rng.chance(0.5)
                                   ? 0
                                   : static_cast<std::uint32_t>(
                                         0xdead0000 + rng.below(16)));
            }
            break;
          default:
            // Re-use an earlier line to exercise m64..m256.
            l = lines.empty() ? randomLine(rng)
                              : lines[rng.below(lines.size())];
            break;
        }
        lines.push_back(l);
        enc.append(l, &out);
    }
    BitReader in(out);
    for (std::size_t i = 0; i < lines.size(); i++) {
        const CacheLine got = dec.decodeLine(in);
        ASSERT_EQ(got, lines[i]) << "line " << i;
    }
    EXPECT_TRUE(dec.ok());
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Lbe, DecoderFailsSoftOnPointersPastTheirTables)
{
    // Hand-built pointer symbols (Table 3 prefix code, then the
    // pointer) that the encoder never wrote: one past an empty table,
    // and the widest pointer after one real line filled the tables a
    // little.
    const LbeConfig cfg;
    const struct
    {
        const char *name;
        std::vector<unsigned> code;
        unsigned ptrBits;
    } kinds[] = {
        {"m32", {0, 1}, cfg.ptrBits32()},
        {"m64", {1, 1, 0, 0}, cfg.ptrBits64()},
        {"m128", {1, 1, 1, 0, 0}, cfg.ptrBits128()},
        {"m256", {1, 1, 1, 1, 0}, cfg.ptrBits256()},
    };
    Rng rng(41);
    for (const auto &k : kinds) {
        for (const bool primed : {false, true}) {
            LbeEncoder enc(cfg);
            BitWriter out;
            const CacheLine real = randomLine(rng);
            if (primed)
                enc.append(real, &out);
            for (const unsigned bit : k.code)
                out.put(bit, 1);
            out.put(primed ? (1ull << k.ptrBits) - 1 : 1, k.ptrBits);
            out.put(0, 64); // room for a decoder that reads on

            LbeDecoder dec(cfg);
            BitReader in(out);
            if (primed) {
                EXPECT_EQ(dec.decodeLine(in), real) << k.name;
                EXPECT_TRUE(dec.ok()) << k.name;
            }
            EXPECT_EQ(dec.decodeLine(in), CacheLine{}) << k.name;
            EXPECT_FALSE(dec.ok()) << k.name;
            // The failure latches until reset.
            EXPECT_EQ(dec.decodeLine(in), CacheLine{}) << k.name;
            EXPECT_FALSE(dec.ok()) << k.name;
            dec.reset();
            EXPECT_TRUE(dec.ok()) << k.name;
        }
    }
}

TEST(Lbe, DictionaryFreezesAtCapacity)
{
    LbeConfig cfg;
    cfg.dictBytes = 32; // 8 entries => 7 insertable values
    LbeEncoder enc(cfg);
    Rng rng(5);
    for (int i = 0; i < 20; i++)
        enc.append(randomLine(rng));
    EXPECT_LT(enc.dictSize(), cfg.entries32());
}

TEST(Lbe, RoundTripTinyDictionary)
{
    LbeConfig cfg;
    cfg.dictBytes = 32;
    cfg.nodes64 = 3;
    cfg.nodes128 = 3;
    cfg.nodes256 = 3;
    LbeEncoder enc(cfg);
    LbeDecoder dec(cfg);
    BitWriter out;
    Rng rng(99);
    std::vector<CacheLine> lines;
    for (int i = 0; i < 200; i++) {
        CacheLine l;
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, static_cast<std::uint32_t>(rng.below(12)) * 3u);
        lines.push_back(l);
        enc.append(l, &out);
    }
    BitReader in(out);
    for (std::size_t i = 0; i < lines.size(); i++)
        ASSERT_EQ(dec.decodeLine(in), lines[i]) << "line " << i;
    EXPECT_TRUE(dec.ok());
}

/** Property sweep: round-trip holds across value-structure regimes. */
class LbeSweep : public ::testing::TestWithParam<std::tuple<double, double,
                                                            unsigned>>
{};

TEST_P(LbeSweep, RoundTripAndSizeSanity)
{
    const double zero_frac = std::get<0>(GetParam());
    const double dup_frac = std::get<1>(GetParam());
    const unsigned pool = std::get<2>(GetParam());

    LbeEncoder enc;
    LbeDecoder dec;
    BitWriter out;
    Rng rng(splitmix64(pool) ^ 77);
    std::vector<std::uint32_t> values;
    for (unsigned i = 0; i < pool; i++)
        values.push_back(static_cast<std::uint32_t>(rng.next()));

    std::vector<CacheLine> lines;
    std::uint64_t total_bits = 0;
    for (int i = 0; i < 100; i++) {
        CacheLine l;
        for (unsigned w = 0; w < kWordsPerLine; w++) {
            if (rng.chance(zero_frac))
                l.setWord32(w, 0);
            else if (rng.chance(dup_frac))
                l.setWord32(w, values[rng.below(pool)]);
            else
                l.setWord32(w, static_cast<std::uint32_t>(rng.next()));
        }
        lines.push_back(l);
        total_bits += enc.append(l, &out);
    }
    BitReader in(out);
    for (std::size_t i = 0; i < lines.size(); i++)
        ASSERT_EQ(dec.decodeLine(in), lines[i]) << "line " << i;
    EXPECT_TRUE(dec.ok());

    // Size sanity: higher redundancy must not cost more than the
    // incompressible bound.
    EXPECT_LE(total_bits, 100ull * (16 * 34 + 16));
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, LbeSweep,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.8),
                       ::testing::Values(0.0, 0.5, 0.95),
                       ::testing::Values(4u, 64u, 1024u)));

} // namespace
} // namespace comp
} // namespace morc
