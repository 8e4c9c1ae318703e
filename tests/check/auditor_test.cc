/**
 * @file
 * Invariant-audit subsystem tests: AuditReport mechanics, per-scheme
 * seeded fuzz with periodic audits (every scheme's audit() must stay
 * clean across >= 1e5 mixed operations), audit() purity, and the
 * mutation check that the MORC auditor *detects* LMT corruption.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/adaptive.hh"
#include "cache/decoupled.hh"
#include "cache/ideal.hh"
#include "cache/llc.hh"
#include "cache/sc2.hh"
#include "cache/uncompressed.hh"
#include "check/auditor.hh"
#include "check/check.hh"
#include "core/morc.hh"
#include "sweep/sweep.hh"
#include "util/rng.hh"

namespace morc {
namespace {

/* ------------------------------------------------------------------ */
/* AuditReport mechanics                                              */
/* ------------------------------------------------------------------ */

TEST(AuditReport, CountsChecksAndViolations)
{
    check::AuditReport r;
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.require(true, "fine"));
    EXPECT_FALSE(r.require(false, "broken: %d != %d", 1, 2));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.checksRun(), 2u);
    EXPECT_EQ(r.violations(), 1u);
    ASSERT_EQ(r.issues().size(), 1u);
    EXPECT_EQ(r.issues()[0], "broken: 1 != 2");
}

TEST(AuditReport, FailRecordsUnconditionally)
{
    check::AuditReport r;
    r.fail("structure unusable");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.violations(), 1u);
    EXPECT_NE(r.str().find("structure unusable"), std::string::npos);
}

TEST(AuditReport, RecordedIssuesAreCappedButCountingContinues)
{
    check::AuditReport r;
    const std::size_t n = check::AuditReport::kMaxRecordedIssues + 40;
    for (std::size_t i = 0; i < n; i++)
        r.require(false, "violation %zu", i);
    EXPECT_EQ(r.violations(), n);
    EXPECT_EQ(r.issues().size(), check::AuditReport::kMaxRecordedIssues);
}

TEST(AuditReport, MergePrefixesAndAccumulates)
{
    check::AuditReport inner;
    inner.require(true, "fine");
    inner.require(false, "bad entry");

    check::AuditReport outer;
    outer.require(true, "also fine");
    outer.merge(inner, "log 3: ");
    EXPECT_EQ(outer.checksRun(), 3u);
    EXPECT_EQ(outer.violations(), 1u);
    ASSERT_EQ(outer.issues().size(), 1u);
    EXPECT_EQ(outer.issues()[0], "log 3: bad entry");
}

/* ------------------------------------------------------------------ */
/* Seeded fuzz: every scheme's audit stays clean under load           */
/* ------------------------------------------------------------------ */

CacheLine
fuzzLine(Rng &rng, std::uint32_t salt)
{
    CacheLine l;
    const auto kind = rng.below(3);
    for (unsigned i = 0; i < kWordsPerLine; i++) {
        if (kind == 0)
            l.setWord32(i, 0);
        else if (kind == 1)
            l.setWord32(i, rng.chance(0.3)
                               ? 0
                               : salt + static_cast<std::uint32_t>(
                                            rng.below(32)) * 4);
        else
            l.setWord32(i, static_cast<std::uint32_t>(rng.next()));
    }
    return l;
}

/** Drive >= @p ops mixed reads/inserts, auditing every 64. */
void
fuzzScheme(cache::Llc &c, std::uint64_t seed, std::uint64_t ops = 100000)
{
    Rng rng(sweep::stableSeed("auditor_test/" + c.name() + "/" +
                              std::to_string(seed)));
    for (std::uint64_t op = 0; op < ops; op++) {
        // Mix of a hot region (hits) and a wide region (evictions).
        const Addr line = rng.chance(0.5) ? rng.below(1024)
                                          : rng.below(1ull << 20);
        const Addr addr = line << kLineShift;
        if (rng.chance(0.5)) {
            c.read(addr);
        } else {
            c.insert(addr, fuzzLine(rng, static_cast<std::uint32_t>(op)),
                     rng.chance(0.4));
        }
        if (op % 64 == 63) {
            const auto r = c.audit();
            ASSERT_TRUE(r.ok()) << "op " << op << " scheme " << c.name()
                                << ":\n"
                                << r.str();
            ASSERT_GT(r.checksRun(), 0u);
        }
    }
    const auto r = c.audit();
    EXPECT_TRUE(r.ok()) << r.str();
}

TEST(AuditorFuzz, Uncompressed)
{
    cache::UncompressedCache c(128 * 1024);
    fuzzScheme(c, 1);
}

TEST(AuditorFuzz, Adaptive)
{
    cache::AdaptiveCache c;
    fuzzScheme(c, 2);
}

TEST(AuditorFuzz, Decoupled)
{
    cache::DecoupledCache c;
    fuzzScheme(c, 3);
}

TEST(AuditorFuzz, Sc2)
{
    cache::Sc2Cache c;
    fuzzScheme(c, 4);
}

TEST(AuditorFuzz, Morc)
{
    core::LogCache c;
    fuzzScheme(c, 5);
}

TEST(AuditorFuzz, MorcMerged)
{
    core::MorcConfig cfg;
    cfg.mergedTags = true;
    core::LogCache c(cfg);
    fuzzScheme(c, 6);
}

TEST(AuditorFuzz, MorcUnlimitedMeta)
{
    core::MorcConfig cfg;
    cfg.unlimitedMeta = true;
    core::LogCache c(cfg);
    fuzzScheme(c, 7, 30000); // map-backed LMT is slower; still >= 400 audits
}

TEST(AuditorFuzz, OracleIntra)
{
    cache::IdealCache c(cache::OracleScope::IntraLine);
    fuzzScheme(c, 8);
}

TEST(AuditorFuzz, OracleInter)
{
    cache::IdealCache c(cache::OracleScope::InterLine);
    fuzzScheme(c, 9);
}

/* ------------------------------------------------------------------ */
/* audit() purity: running it must not perturb behaviour              */
/* ------------------------------------------------------------------ */

TEST(Auditor, AuditIsSideEffectFree)
{
    core::LogCache audited, plain;
    Rng rng_a(11), rng_b(11);
    for (std::uint64_t op = 0; op < 20000; op++) {
        const Addr addr = rng_a.below(1ull << 14) << kLineShift;
        ASSERT_EQ(addr, rng_b.below(1ull << 14) << kLineShift);
        const bool write = rng_a.chance(0.4);
        ASSERT_EQ(write, rng_b.chance(0.4));
        if (write) {
            const CacheLine d = fuzzLine(rng_a, 0x77);
            ASSERT_EQ(d, fuzzLine(rng_b, 0x77));
            audited.insert(addr, d, true);
            plain.insert(addr, d, true);
        } else {
            const auto ra = audited.read(addr);
            const auto rb = plain.read(addr);
            ASSERT_EQ(ra.hit, rb.hit) << "op " << op;
            ASSERT_EQ(ra.extraLatency, rb.extraLatency) << "op " << op;
            if (ra.hit) {
                ASSERT_EQ(ra.data, rb.data) << "op " << op;
            }
        }
        // Only one of the twins is audited (twice, for good measure).
        if (op % 64 == 63) {
            audited.audit();
            audited.audit();
        }
    }
    EXPECT_EQ(audited.validLines(), plain.validLines());
    EXPECT_EQ(audited.stats(), plain.stats());
}

/* ------------------------------------------------------------------ */
/* Mutation: injected corruption must be *detected*                    */
/* ------------------------------------------------------------------ */

TEST(Auditor, DetectsInjectedLmtCorruption)
{
    core::LogCache c;
    Rng rng(13);
    for (Addr a = 0; a < 4000; a++)
        c.insert(a << kLineShift, fuzzLine(rng, 0x99), false);
    ASSERT_TRUE(c.audit().ok());

    ASSERT_TRUE(c.debugCorruptLmt(13));
    const auto r = c.audit();
    EXPECT_FALSE(r.ok()) << "auditor missed an injected broken LMT";
    EXPECT_GE(r.violations(), 1u);
}

TEST(Auditor, DetectsInjectedLmtCorruptionUnlimitedMeta)
{
    core::MorcConfig cfg;
    cfg.unlimitedMeta = true;
    core::LogCache c(cfg);
    Rng rng(14);
    for (Addr a = 0; a < 4000; a++)
        c.insert(a << kLineShift, fuzzLine(rng, 0xaa), false);
    ASSERT_TRUE(c.audit().ok());

    ASSERT_TRUE(c.debugCorruptLmt(14));
    EXPECT_FALSE(c.audit().ok());
}

TEST(Auditor, CorruptLmtOnEmptyCacheReturnsFalse)
{
    core::LogCache c;
    EXPECT_FALSE(c.debugCorruptLmt(0));
    EXPECT_TRUE(c.audit().ok());
}

/* ------------------------------------------------------------------ */
/* MORC_CHECK death semantics (only when checks are compiled in)      */
/* ------------------------------------------------------------------ */

#if MORC_CHECKS_ENABLED
TEST(MorcCheckMacroDeathTest, FailingCheckAbortsWithContext)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(MORC_CHECK(1 == 2, "math broke: %d", 42),
                 "MORC_CHECK failed.*math broke: 42");
}
#endif

TEST(MorcCheckMacro, PassingCheckIsSilent)
{
    // Must compile and run in every build mode, including ones where
    // the macro expands to the unevaluated-operand form.
    MORC_CHECK(1 + 1 == 2, "arithmetic is broken");
    MORC_DCHECK(2 + 2 == 4, "arithmetic is broken");
}

} // namespace
} // namespace morc
