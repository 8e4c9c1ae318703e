/**
 * @file
 * Tiled-substrate unit tests: mesh geometry (XY routing is a metric),
 * NoC link contention (queueing is monotone in offered load and local
 * to the links actually traversed), and the BankedLlc director
 * (home-bank routing, cross-bank exclusivity, stat aggregation, audit
 * merging, and the LMT-corruption mutation hook).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cache/uncompressed.hh"
#include "core/morc.hh"
#include "mesh/banked_llc.hh"
#include "mesh/noc.hh"
#include "mesh/topology.hh"

namespace morc {
namespace {

using mesh::BankedLlc;
using mesh::MeshConfig;
using mesh::Noc;

MeshConfig
makeMesh(unsigned w, unsigned h, unsigned controllers = 2)
{
    MeshConfig cfg;
    cfg.width = w;
    cfg.height = h;
    cfg.memControllers = controllers;
    cfg.validate();
    return cfg;
}

/* ------------------------------------------------------------------ */
/* Geometry                                                           */
/* ------------------------------------------------------------------ */

TEST(MeshTopology, HopsIsTheManhattanMetric)
{
    const MeshConfig cfg = makeMesh(4, 4);
    for (unsigned a = 0; a < cfg.tiles(); a++) {
        EXPECT_EQ(cfg.hops(a, a), 0u);
        for (unsigned b = 0; b < cfg.tiles(); b++) {
            // Symmetry, and agreement with coordinate distance.
            EXPECT_EQ(cfg.hops(a, b), cfg.hops(b, a));
            const auto d = [](unsigned x, unsigned y) {
                return x > y ? x - y : y - x;
            };
            EXPECT_EQ(cfg.hops(a, b),
                      d(cfg.tileX(a), cfg.tileX(b)) +
                          d(cfg.tileY(a), cfg.tileY(b)));
            // Triangle inequality through every relay tile.
            for (unsigned c = 0; c < cfg.tiles(); c++)
                EXPECT_LE(cfg.hops(a, b),
                          cfg.hops(a, c) + cfg.hops(c, b));
        }
    }
    // Opposite corners of a 4x4 are 6 hops apart.
    EXPECT_EQ(cfg.hops(cfg.tileAt(0, 0), cfg.tileAt(3, 3)), 6u);
}

TEST(MeshTopology, HomeBankIsGranuleStable)
{
    const MeshConfig cfg = makeMesh(4, 4);
    // Every line within one interleave granule maps to the same bank;
    // the next granule maps to the next bank (round-robin).
    const Addr granule = cfg.interleaveBytes;
    for (Addr base = 0; base < 8 * granule; base += granule) {
        const unsigned bank = cfg.homeBank(base);
        for (Addr off = 0; off < granule; off += kLineSize)
            EXPECT_EQ(cfg.homeBank(base + off), bank);
        EXPECT_EQ(cfg.homeBank(base + granule),
                  (bank + 1) % cfg.tiles());
    }
}

TEST(MeshTopology, ControllersSitOnDistinctEdgeTiles)
{
    for (unsigned controllers : {1u, 2u, 3u, 4u, 8u}) {
        const MeshConfig cfg = makeMesh(4, 4, controllers);
        std::set<unsigned> tiles;
        for (unsigned c = 0; c < controllers; c++) {
            const unsigned t = cfg.controllerTile(c);
            ASSERT_LT(t, cfg.tiles());
            const unsigned y = cfg.tileY(t);
            EXPECT_TRUE(y == 0 || y == cfg.height - 1)
                << "controller " << c << " not on an edge row";
            tiles.insert(t);
        }
        EXPECT_EQ(tiles.size(), controllers);
    }
}

TEST(MeshTopology, ControllerMapCoversAllChannels)
{
    const MeshConfig cfg = makeMesh(4, 4, 2);
    std::set<unsigned> seen;
    for (Addr a = 0; a < 64 * cfg.interleaveBytes; a += cfg.interleaveBytes)
        seen.insert(cfg.controllerFor(a));
    EXPECT_EQ(seen.size(), cfg.memControllers);
}

/* ------------------------------------------------------------------ */
/* NoC timing                                                         */
/* ------------------------------------------------------------------ */

TEST(Noc, UncontendedLatencyIsHopsPlusSerialization)
{
    const MeshConfig cfg = makeMesh(4, 4);
    Noc noc(cfg);
    const unsigned from = cfg.tileAt(0, 0);
    const unsigned to = cfg.tileAt(3, 2);
    const Cycles lat = noc.transfer(from, to, kLineSize, /*now=*/0);
    EXPECT_EQ(lat, cfg.hops(from, to) * cfg.hopCycles +
                       noc.serializationCycles(kLineSize));
    EXPECT_EQ(noc.messages(), 1u);
    EXPECT_DOUBLE_EQ(noc.meanHops(), cfg.hops(from, to));
}

TEST(Noc, LocalDeliveryIsFree)
{
    Noc noc(makeMesh(4, 4));
    EXPECT_EQ(noc.transfer(5, 5, kLineSize, 100), 0u);
}

TEST(Noc, SameRouteContentionIsMonotone)
{
    // N messages injected on the same route at the same instant: each
    // later message queues behind the earlier ones, so latency is
    // strictly non-decreasing in injection order.
    const MeshConfig cfg = makeMesh(4, 4);
    Noc noc(cfg);
    Cycles prev = 0;
    for (int i = 0; i < 8; i++) {
        const Cycles lat = noc.transfer(0, 3, kLineSize, /*now=*/0);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
    // And the 8-deep latency strictly exceeds the uncontended one.
    Noc fresh(cfg);
    EXPECT_GT(prev, fresh.transfer(0, 3, kLineSize, 0));
}

TEST(Noc, DisjointRoutesDoNotInterfere)
{
    const MeshConfig cfg = makeMesh(4, 4);
    Noc quiet(cfg);
    const Cycles alone =
        quiet.transfer(cfg.tileAt(0, 0), cfg.tileAt(3, 0), kLineSize, 0);

    Noc busy(cfg);
    // Saturate the bottom row's eastbound links...
    for (int i = 0; i < 16; i++)
        busy.transfer(cfg.tileAt(0, 0), cfg.tileAt(3, 0), kLineSize, 0);
    // ...then send along the top row: no shared links, no queueing.
    EXPECT_EQ(busy.transfer(cfg.tileAt(0, 3), cfg.tileAt(3, 3),
                            kLineSize, 0),
              alone);
}

TEST(Noc, ClearCountersDrainsLinksAndHistograms)
{
    Noc noc(makeMesh(2, 2));
    noc.transfer(0, 3, kLineSize, 0);
    noc.transfer(0, 3, kLineSize, 0);
    noc.clearCounters();
    EXPECT_EQ(noc.messages(), 0u);
    EXPECT_EQ(noc.hopHistogram().total(), 0u);
    EXPECT_EQ(noc.queueHistogram().total(), 0u);
    // Links idle again: the first transfer after the reset sees the
    // uncontended latency.
    const Cycles lat = noc.transfer(0, 3, kLineSize, 0);
    Noc fresh(makeMesh(2, 2));
    EXPECT_EQ(lat, fresh.transfer(0, 3, kLineSize, 0));
}

/* ------------------------------------------------------------------ */
/* BankedLlc                                                          */
/* ------------------------------------------------------------------ */

CacheLine
patternLine(std::uint32_t salt)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, salt + i);
    return l;
}

std::unique_ptr<BankedLlc>
makeBankedUncompressed(const MeshConfig &cfg, std::uint64_t total)
{
    return std::make_unique<BankedLlc>(
        cfg, total, [](unsigned, std::uint64_t capacity) {
            return std::make_unique<cache::UncompressedCache>(capacity);
        });
}

TEST(BankedLlc, CapacityIsPartitionedEvenly)
{
    const MeshConfig cfg = makeMesh(2, 2);
    auto banked = makeBankedUncompressed(cfg, 64 * 1024);
    EXPECT_EQ(banked->numBanks(), 4u);
    EXPECT_EQ(banked->capacityBytes(), 64u * 1024);
    for (unsigned b = 0; b < banked->numBanks(); b++)
        EXPECT_EQ(banked->bank(b).capacityBytes(), 16u * 1024);
    EXPECT_NE(banked->name().find("Banked[4x"), std::string::npos);
}

TEST(BankedLlc, RoutesToHomeBankExclusively)
{
    const MeshConfig cfg = makeMesh(2, 2);
    auto banked = makeBankedUncompressed(cfg, 64 * 1024);
    // One address per bank, spaced one interleave granule apart.
    for (unsigned g = 0; g < banked->numBanks(); g++) {
        const Addr addr = static_cast<Addr>(g) * cfg.interleaveBytes;
        const unsigned home = banked->homeBank(addr);
        banked->insert(addr, patternLine(g), false);

        const auto rr = banked->read(addr);
        ASSERT_TRUE(rr.hit);
        EXPECT_EQ(rr.data, patternLine(g));

        // Resident in the home bank, absent from every other bank.
        EXPECT_TRUE(banked->bank(home).read(addr).hit);
        for (unsigned b = 0; b < banked->numBanks(); b++) {
            if (b != home) {
                EXPECT_FALSE(banked->bank(b).read(addr).hit)
                    << "address aliased into foreign bank " << b;
            }
        }
    }
}

TEST(BankedLlc, AggregatesStatsAcrossBanks)
{
    const MeshConfig cfg = makeMesh(2, 2);
    auto banked = makeBankedUncompressed(cfg, 64 * 1024);
    const unsigned n = 3 * banked->numBanks();
    for (unsigned g = 0; g < n; g++) {
        const Addr addr = static_cast<Addr>(g) * cfg.interleaveBytes;
        banked->insert(addr, patternLine(g), false);
        banked->read(addr);
        banked->read(addr + kLineSize); // miss: only line 0 was filled
    }
    EXPECT_EQ(banked->stats().inserts, n);
    EXPECT_EQ(banked->stats().reads, 2u * n);
    EXPECT_EQ(banked->stats().readHits, n);
    EXPECT_EQ(banked->validLines(), n);

    banked->clearAllStats();
    EXPECT_EQ(banked->stats().reads, 0u);
    for (unsigned b = 0; b < banked->numBanks(); b++)
        EXPECT_EQ(banked->bank(b).stats().reads, 0u);
}

TEST(BankedLlc, AuditMergesBankReportsAndSeesInjectedCorruption)
{
    const MeshConfig cfg = makeMesh(2, 2);
    BankedLlc banked(cfg, 64 * 1024,
                     [](unsigned, std::uint64_t capacity) {
                         core::MorcConfig mc;
                         mc.capacityBytes = capacity;
                         return std::make_unique<core::LogCache>(mc);
                     });
    for (unsigned g = 0; g < 32; g++)
        banked.insert(static_cast<Addr>(g) * cfg.interleaveBytes,
                      patternLine(g), false);
    const auto clean = banked.audit();
    EXPECT_TRUE(clean.ok()) << clean.str();
    EXPECT_GT(clean.checksRun(), 0u);

    ASSERT_TRUE(banked.debugCorruptLmt(/*seed=*/7));
    const auto broken = banked.audit();
    EXPECT_FALSE(broken.ok());
    // The merged report names the offending bank.
    EXPECT_NE(broken.str().find("bank"), std::string::npos);
}

TEST(BankedLlc, InvalidLineFractionAveragesMorcBanks)
{
    const MeshConfig cfg = makeMesh(2, 2);
    auto uncompressed = makeBankedUncompressed(cfg, 64 * 1024);
    EXPECT_DOUBLE_EQ(uncompressed->invalidLineFraction(), 0.0);

    BankedLlc banked(cfg, 64 * 1024,
                     [](unsigned, std::uint64_t capacity) {
                         core::MorcConfig mc;
                         mc.capacityBytes = capacity;
                         return std::make_unique<core::LogCache>(mc);
                     });
    // Rewrite the same addresses: in-place invalidation accumulates.
    for (int round = 0; round < 4; round++)
        for (unsigned g = 0; g < 64; g++)
            banked.insert(static_cast<Addr>(g) * cfg.interleaveBytes,
                          patternLine(16 * round + g), true);
    EXPECT_GE(banked.invalidLineFraction(), 0.0);
    EXPECT_LE(banked.invalidLineFraction(), 1.0);
}

} // namespace
} // namespace morc
