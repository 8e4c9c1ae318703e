/**
 * @file
 * Tests for the crash-safe sweep journal: RunRecord serialization
 * round-trips bit-exactly (doubles travel as IEEE-754 bit patterns),
 * recovery keeps every intact entry and cuts a torn or corrupt tail so
 * that later appends are recovered, and a "resumed" sweep that mixes
 * journaled and fresh records reproduces the original report byte for
 * byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "snapshot/snapshot.hh"
#include "stats/report.hh"
#include "sweep/journal.hh"

namespace morc {
namespace sweep {
namespace {

stats::RunRecord
makeRecord(const std::string &key, double salt)
{
    stats::RunRecord rec;
    rec.key = key;
    rec.label("workload", "gcc");
    rec.label("scheme", "MORC");
    rec.metric("ipc", 0.731 + salt);
    rec.metric("ratio", 2.25 * salt);
    rec.metric("weird", 1.0 / 3.0); // must survive bit-exactly
    stats::Histogram h({10, 20, 40});
    h.record(5);
    h.record(15);
    h.record(999);
    rec.histograms.emplace_back("lat", h);
    rec.percentile("latency.all", "p50", 32.0 + salt);
    rec.percentile("latency.all", "p99", 512.0);
    rec.lifetimePoint("years", 0.0123 * salt);
    rec.lifetimePoint("imbalance", 1.0 / 3.0); // bit-exact survival
    rec.series.epochCycles = 1000;
    rec.series.samples = 3;
    rec.series.droppedEpochs = 1;
    telemetry::Series ser;
    ser.name = "llc.hits";
    ser.kind = telemetry::ProbeKind::Counter;
    ser.values = {1.0, 2.0, 3.5};
    rec.series.series.push_back(ser);
    rec.trace.tracks = {"llc", "core0"};
    rec.trace.events.push_back(telemetry::Event{
        123, telemetry::EventKind::LogFlush, 0, 7, 9});
    rec.trace.dropped = 2;
    return rec;
}

std::vector<std::uint8_t>
recordBytes(const stats::RunRecord &rec)
{
    snap::Serializer s;
    saveRunRecord(s, rec);
    return s.frame();
}

TEST(Journal, RunRecordRoundTripsBitExactly)
{
    const stats::RunRecord rec = makeRecord("fig6/gcc/MORC", 0.125);
    // FNV-1a of the frame pins the journal layout itself: makeRecord
    // fills every section.
    std::uint64_t digest = 1469598103934665603ull;
    for (const std::uint8_t b : recordBytes(rec))
        digest = (digest ^ b) * 1099511628211ull;
    EXPECT_EQ(digest, 0x4c3f854cb00ac6c4ull);
    snap::Deserializer d(recordBytes(rec));
    const stats::RunRecord got = loadRunRecord(d);
    ASSERT_TRUE(d.ok()) << d.error();

    EXPECT_EQ(got.key, rec.key);
    EXPECT_EQ(got.labels, rec.labels);
    ASSERT_EQ(got.metrics.size(), rec.metrics.size());
    for (std::size_t i = 0; i < got.metrics.size(); i++) {
        EXPECT_EQ(got.metrics[i].first, rec.metrics[i].first);
        EXPECT_EQ(got.metrics[i].second, rec.metrics[i].second);
    }
    EXPECT_EQ(got.series.samples, rec.series.samples);
    EXPECT_EQ(got.series.series[0].values, rec.series.series[0].values);
    EXPECT_EQ(got.trace.tracks, rec.trace.tracks);
    EXPECT_EQ(got.trace.events.size(), rec.trace.events.size());
    EXPECT_EQ(got.trace.dropped, rec.trace.dropped);

    // The loaded record re-serializes to the very same bytes — the
    // property the resume path's byte-identity rests on.
    EXPECT_EQ(recordBytes(got), recordBytes(rec));
}

TEST(Journal, RejectsBadProbeAndEventKinds)
{
    stats::RunRecord rec = makeRecord("k", 1.0);
    snap::Serializer s;
    saveRunRecord(s, rec);
    // Corrupting an enum byte beyond its max must latch an error, not
    // fabricate an out-of-range enum value. Rather than hunt the byte
    // offset, replay through a record whose kind we bump directly.
    rec.series.series[0].kind = static_cast<telemetry::ProbeKind>(9);
    snap::Deserializer d(recordBytes(rec));
    loadRunRecord(d);
    EXPECT_FALSE(d.ok());
}

TEST(Journal, AppendLoadLookup)
{
    const std::string path = "/tmp/morc_journal_test.journal";
    std::remove(path.c_str());
    {
        Journal j(path);
        EXPECT_EQ(j.load(), 0u); // missing file = fresh sweep
        j.append(makeRecord("a", 1.0));
        j.append(makeRecord("b", 2.0));
        j.append(makeRecord("c", 3.0));
        EXPECT_EQ(j.size(), 3u);
    }
    Journal j(path);
    EXPECT_EQ(j.load(), 3u);
    ASSERT_NE(j.lookup("b"), nullptr);
    EXPECT_EQ(j.lookup("b")->key, "b");
    EXPECT_EQ(recordBytes(*j.lookup("b")),
              recordBytes(makeRecord("b", 2.0)));
    EXPECT_EQ(j.lookup("nope"), nullptr);
    std::remove(path.c_str());
}

TEST(Journal, TornTailKeepsEarlierEntries)
{
    const std::string path = "/tmp/morc_journal_torn.journal";
    std::remove(path.c_str());
    {
        Journal j(path);
        j.append(makeRecord("a", 1.0));
        j.append(makeRecord("b", 2.0));
        j.append(makeRecord("c", 3.0));
    }
    // Tear the last entry: the process died mid-append.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(std::filesystem::exists(path), true);
    std::filesystem::resize_file(path, static_cast<std::size_t>(size) - 9);

    Journal j(path);
    EXPECT_EQ(j.load(), 2u);
    EXPECT_NE(j.lookup("a"), nullptr);
    EXPECT_NE(j.lookup("b"), nullptr);
    EXPECT_EQ(j.lookup("c"), nullptr); // torn entry re-simulated
    // The load cut the torn bytes, so the re-simulated entry lands
    // where the next load reads it.
    j.append(makeRecord("c", 3.0));
    Journal again(path);
    EXPECT_EQ(again.load(), 3u);
    ASSERT_NE(again.lookup("c"), nullptr);
    EXPECT_EQ(recordBytes(*again.lookup("c")),
              recordBytes(makeRecord("c", 3.0)));
    std::remove(path.c_str());
}

TEST(Journal, CorruptEntryEndsRecoveryThere)
{
    const std::string path = "/tmp/morc_journal_corrupt.journal";
    std::remove(path.c_str());
    long firstEnd = 0;
    {
        Journal j(path);
        j.append(makeRecord("a", 1.0));
        std::FILE *f = std::fopen(path.c_str(), "rb");
        std::fseek(f, 0, SEEK_END);
        firstEnd = std::ftell(f);
        std::fclose(f);
        j.append(makeRecord("b", 2.0));
        j.append(makeRecord("c", 3.0));
    }
    // Flip one payload byte inside entry "b".
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, firstEnd + 40, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, firstEnd + 40, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    Journal j(path);
    EXPECT_EQ(j.load(), 1u); // only "a" survives; suffix discarded
    EXPECT_NE(j.lookup("a"), nullptr);
    j.append(makeRecord("b", 2.0));
    Journal again(path);
    EXPECT_EQ(again.load(), 2u);
    EXPECT_NE(again.lookup("b"), nullptr);
    EXPECT_EQ(again.lookup("c"), nullptr);
    std::remove(path.c_str());
}

TEST(Journal, FrameHoldingNoRecordEndsRecoveryThere)
{
    const std::string path = "/tmp/morc_journal_foreign.journal";
    std::remove(path.c_str());
    {
        Journal j(path);
        j.append(makeRecord("a", 1.0));
        j.append(makeRecord("b", 2.0));
    }
    const std::uintmax_t records_end = std::filesystem::file_size(path);
    // A valid frame, CRC and all, whose payload is not a record.
    snap::Serializer foreign;
    foreign.section("SCFG", [&] { foreign.u64(7); });
    const std::vector<std::uint8_t> frame = foreign.frame();
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
    std::fclose(f);

    Journal j(path);
    EXPECT_EQ(j.load(), 2u);
    EXPECT_EQ(std::filesystem::file_size(path), records_end);
    j.append(makeRecord("c", 3.0));
    Journal again(path);
    EXPECT_EQ(again.load(), 3u);
    EXPECT_NE(again.lookup("c"), nullptr);
    std::remove(path.c_str());
}

TEST(Journal, ResumeReproducesRecordsBitExactly)
{
    // A sweep of six "tasks", killed after three: the resumed run
    // takes a/b/c from the journal and simulates d/e/f fresh. The
    // combined record set must serialize identically to an
    // uninterrupted run's.
    const std::string path = "/tmp/morc_journal_resume.journal";
    std::remove(path.c_str());
    const char *keys[] = {"a", "b", "c", "d", "e", "f"};

    std::vector<std::vector<std::uint8_t>> uninterrupted;
    for (int i = 0; i < 6; i++)
        uninterrupted.push_back(recordBytes(makeRecord(keys[i], i * 0.5)));

    {
        Journal first(path);
        for (int i = 0; i < 3; i++)
            first.append(makeRecord(keys[i], i * 0.5));
        // ... killed here ...
    }
    Journal resumed(path);
    ASSERT_EQ(resumed.load(), 3u);
    for (int i = 0; i < 6; i++) {
        const stats::RunRecord *done = resumed.lookup(keys[i]);
        const stats::RunRecord rec =
            done ? *done : makeRecord(keys[i], i * 0.5);
        EXPECT_EQ(recordBytes(rec), uninterrupted[i]) << keys[i];
        EXPECT_EQ(done != nullptr, i < 3);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace sweep
} // namespace morc
