/**
 * @file
 * Tests for the snapshot serialization layer: primitive round-trips,
 * frame validation (magic/version/endianness/length/CRC), the tagged
 * section machinery, the shared walk vocabulary (in-place restore,
 * expect/check/range/length/key-order rejection), soft-failure
 * semantics, and atomic file writes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "snapshot/snapshot.hh"

namespace morc {
namespace snap {
namespace {

TEST(Snapshot, PrimitivesRoundTrip)
{
    Serializer s;
    s.u8(0xab);
    s.u16(0xbeef);
    s.u32(0xdeadbeefu);
    s.u64(0x0123456789abcdefull);
    s.i64(-42);
    s.f64(3.14159265358979);
    s.f64(-0.0);
    s.boolean(true);
    s.boolean(false);
    s.str("hello");
    s.str("");
    const std::uint8_t raw[3] = {1, 2, 3};
    s.bytes(raw, 3);

    Deserializer d(s.frame());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0xbeef);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.f64(), 3.14159265358979);
    const double neg_zero = d.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero)); // bit-exact, not value-equal
    EXPECT_TRUE(d.boolean());
    EXPECT_FALSE(d.boolean());
    EXPECT_EQ(d.str(), "hello");
    EXPECT_EQ(d.str(), "");
    std::uint8_t out[3] = {};
    d.bytes(out, 3);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[2], 3);
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(d.remaining(), 0u);
}

TEST(Snapshot, VectorsRoundTrip)
{
    Serializer s;
    s.vecU8({9, 8, 7});
    s.vecU32({1u << 30, 2});
    s.vecU64({1ull << 60});
    s.vecF64({1.5, -2.5, 0.0});
    const std::vector<std::string> names = {"a", "bc", "def"};
    s.vec(names, 8, [&s](const std::string &n) { s.str(n); });

    Deserializer d(s.frame());
    std::vector<std::uint8_t> v8;
    std::vector<std::uint32_t> v32;
    std::vector<std::uint64_t> v64;
    std::vector<double> vf;
    d.vecU8(v8);
    d.vecU32(v32);
    d.vecU64(v64);
    d.vecF64(vf);
    std::vector<std::string> got;
    d.vec(got, 8, [&d](std::string &n) { d.str(n); });
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(v8, (std::vector<std::uint8_t>{9, 8, 7}));
    EXPECT_EQ(v32, (std::vector<std::uint32_t>{1u << 30, 2}));
    EXPECT_EQ(v64, (std::vector<std::uint64_t>{1ull << 60}));
    EXPECT_EQ(vf, (std::vector<double>{1.5, -2.5, 0.0}));
    EXPECT_EQ(got, names);
}

TEST(Snapshot, SectionsNestAndValidate)
{
    Serializer s;
    s.beginSection("OUTR");
    s.u32(1);
    s.beginSection("INNR");
    s.u64(2);
    s.endSection();
    s.u32(3);
    s.endSection();

    Deserializer d(s.frame());
    ASSERT_TRUE(d.beginSection("OUTR"));
    EXPECT_EQ(d.u32(), 1u);
    ASSERT_TRUE(d.beginSection("INNR"));
    EXPECT_EQ(d.u64(), 2u);
    d.endSection();
    EXPECT_EQ(d.u32(), 3u);
    d.endSection();
    EXPECT_TRUE(d.ok());
}

TEST(Snapshot, WrongSectionTagFailsSoftly)
{
    Serializer s;
    s.beginSection("GOOD");
    s.u32(7);
    s.endSection();

    Deserializer d(s.frame());
    EXPECT_FALSE(d.beginSection("EVIL"));
    EXPECT_FALSE(d.ok());
    // Every subsequent read is a zero-valued no-op, never a crash.
    EXPECT_EQ(d.u64(), 0u);
    EXPECT_EQ(d.str(), "");
}

TEST(Snapshot, UnderconsumedSectionFails)
{
    Serializer s;
    s.beginSection("SECT");
    s.u32(1);
    s.u32(2);
    s.endSection();

    Deserializer d(s.frame());
    ASSERT_TRUE(d.beginSection("SECT"));
    EXPECT_EQ(d.u32(), 1u);
    d.endSection(); // 4 bytes left unread: reader/writer drift
    EXPECT_FALSE(d.ok());
}

TEST(Snapshot, FrameRejectsTampering)
{
    Serializer s;
    s.u64(12345);
    s.str("payload");
    const std::vector<std::uint8_t> good = s.frame();
    ASSERT_TRUE(Deserializer(good).ok());

    // Any single flipped byte anywhere must be caught.
    for (std::size_t pos :
         {std::size_t{0}, std::size_t{9}, good.size() / 2,
          good.size() - 1}) {
        std::vector<std::uint8_t> bad = good;
        bad[pos] ^= 0x01;
        Deserializer d(std::move(bad));
        std::uint64_t v = d.u64();
        EXPECT_FALSE(d.ok()) << "flip at " << pos << " accepted";
        EXPECT_EQ(v, 0u);
    }

    // Truncation at every boundary region.
    for (std::size_t keep : {std::size_t{0}, std::size_t{7},
                             std::size_t{20}, good.size() - 1}) {
        std::vector<std::uint8_t> bad(good.begin(),
                                      good.begin() + keep);
        EXPECT_FALSE(Deserializer(std::move(bad)).ok())
            << "truncated to " << keep << " accepted";
    }
}

TEST(Snapshot, FrameRejectsFutureVersion)
{
    Serializer s;
    s.u32(1);
    std::vector<std::uint8_t> frame = s.frame();
    // Bump the version field (bytes 8..11) and re-seal the CRC so only
    // the version check can object.
    frame[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
    const std::uint32_t crc = crc32(frame.data(), frame.size() - 4);
    for (unsigned i = 0; i < 4; i++)
        frame[frame.size() - 4 + i] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    EXPECT_FALSE(Deserializer(std::move(frame)).ok());
}

TEST(Snapshot, ArrayLenIsCappedAgainstRemainingBytes)
{
    // A corrupt (huge) element count must not drive a giant resize:
    // arrayLen caps against the bytes actually left in the stream.
    Serializer s;
    s.u64(1ull << 60); // claims 2^60 elements...
    s.u32(7);          // ...but only 4 bytes follow
    Deserializer d(s.frame());
    std::vector<std::uint64_t> v;
    d.vec(v, 8, [&d](std::uint64_t &e) { d.u64(e); });
    EXPECT_FALSE(d.ok());
    EXPECT_TRUE(v.empty());
}

/** A component spelled the way every snapshotted part of the simulator
 *  is: one walk, run by both save and restore. */
struct Walked
{
    std::uint32_t ways = 4;                 // config: expect()ed
    std::uint64_t clock = 0;                // state
    std::uint8_t kind = 0;                  // narrowed, must be < 3
    std::vector<std::uint64_t> fixed{0, 0}; // geometry-pinned length
    std::deque<std::uint32_t> fifo;         // free length
    std::unordered_map<std::uint64_t, std::uint32_t> map;

    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.section("WALK", [&] {
            io.expect(self.ways, "ways mismatch");
            io.u64(self.clock);
            io.u32(self.kind, 3, "kind out of range");
            io.fixedVec(self.fixed, 8, "fixed length mismatch",
                        [&](auto &v) { io.u64(v); });
            io.vec(self.fifo, 4, [&](auto &v) { io.u32(v); });
            io.sortedMap(self.map, 8 + 4, [&](auto &k, auto &v) {
                io.u64(k);
                io.u32(v);
            });
            io.check(self.clock < 1000, "clock out of range");
        });
    }

    std::vector<std::uint8_t>
    frame() const
    {
        Serializer s;
        walk(*this, s);
        return s.frame();
    }

    bool
    restore(std::vector<std::uint8_t> bytes)
    {
        Deserializer d(std::move(bytes));
        walk(*this, d);
        return d.ok();
    }
};

Walked
sampleWalked()
{
    Walked w;
    w.clock = 77;
    w.kind = 2;
    w.fixed = {5, 6};
    w.fifo = {9, 8, 7};
    w.map = {{30, 3}, {10, 1}, {20, 2}};
    return w;
}

TEST(Snapshot, WalkRestoresInPlaceAndReserializes)
{
    const Walked w = sampleWalked();
    const std::vector<std::uint8_t> bytes = w.frame();
    Walked twin;
    ASSERT_TRUE(twin.restore(bytes));
    EXPECT_EQ(twin.clock, 77u);
    EXPECT_EQ(twin.kind, 2u);
    EXPECT_EQ(twin.fixed, w.fixed);
    EXPECT_EQ(twin.fifo, w.fifo);
    EXPECT_EQ(twin.map, w.map);
    EXPECT_EQ(twin.frame(), bytes); // map entries travel key-sorted
}

TEST(Snapshot, WalkRejectsMismatchAndOutOfRangeValues)
{
    const auto rejects = [](const Walked &saved, Walked live) {
        return !live.restore(saved.frame());
    };
    Walked other_ways = sampleWalked();
    other_ways.ways = 8;
    EXPECT_TRUE(rejects(other_ways, Walked{}));

    Walked bad_kind = sampleWalked();
    bad_kind.kind = 3;
    EXPECT_TRUE(rejects(bad_kind, Walked{}));

    Walked bad_clock = sampleWalked();
    bad_clock.clock = 1000;
    EXPECT_TRUE(rejects(bad_clock, Walked{}));

    // A geometry-pinned vector never takes the stream's length.
    Walked longer = sampleWalked();
    longer.fixed = {1, 2, 3};
    Walked live;
    EXPECT_FALSE(live.restore(longer.frame()));
    EXPECT_EQ(live.fixed.size(), 2u);
}

TEST(Snapshot, WalkRejectsUnsortedMapKeys)
{
    // Hand-written stream whose map repeats a key: a saved map is
    // always strictly ascending, so this can only be hostile input.
    Serializer s;
    s.beginSection("WALK");
    s.u32(4);
    s.u64(0);
    s.u32(0);
    s.vecU64({0, 0});
    s.vecU32({});
    s.u64(2);
    for (int i = 0; i < 2; i++) {
        s.u64(5);
        s.u32(1);
    }
    s.endSection();
    Walked live;
    EXPECT_FALSE(live.restore(s.frame()));
}

TEST(Snapshot, ExplicitFailLatchesFirstError)
{
    Serializer s;
    s.u32(1);
    Deserializer d(s.frame());
    d.fail("config mismatch");
    d.fail("later error");
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.error(), "config mismatch"); // root cause wins
    EXPECT_EQ(d.u32(), 0u);
}

TEST(Snapshot, AtomicWriteAndReadFile)
{
    const std::string path = "/tmp/morc_snapshot_atomic_test.bin";
    const std::string v1 = "first version";
    const std::string v2 = "second, longer version of the contents";
    ASSERT_TRUE(atomicWriteFile(path, v1.data(), v1.size()));
    ASSERT_TRUE(atomicWriteFile(path, v2.data(), v2.size()));
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(readFile(path, got));
    EXPECT_EQ(std::string(got.begin(), got.end()), v2);
    // No temp file may be left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::remove(path.c_str());

    EXPECT_FALSE(readFile("/nonexistent/morc/snapshot", got));
    EXPECT_TRUE(got.empty());
}

TEST(Snapshot, WriteFileFromFileRoundTrip)
{
    const std::string path = "/tmp/morc_snapshot_file_test.snap";
    Serializer s;
    s.beginSection("TEST");
    s.u64(0xfeedface);
    s.str("state");
    s.endSection();
    ASSERT_TRUE(s.writeFile(path));

    Deserializer d = Deserializer::fromFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d.beginSection("TEST"));
    EXPECT_EQ(d.u64(), 0xfeedfaceu);
    EXPECT_EQ(d.str(), "state");
    d.endSection();
    EXPECT_TRUE(d.ok());

    EXPECT_FALSE(Deserializer::fromFile("/nonexistent/path.snap").ok());
}

TEST(Snapshot, Crc32MatchesKnownVector)
{
    // IEEE 802.3 check value for "123456789".
    const char *msg = "123456789";
    EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);
    // Incremental == one-shot.
    const std::uint32_t part = crc32(msg, 4);
    EXPECT_EQ(crc32(msg + 4, 5, part), 0xCBF43926u);
}

} // namespace
} // namespace snap
} // namespace morc
