#include "sim/scheme.hh"

#include <iterator>

#include "cache/adaptive.hh"
#include "cache/decoupled.hh"
#include "cache/ideal.hh"
#include "cache/sc2.hh"
#include "cache/touche.hh"
#include "cache/uncompressed.hh"

namespace morc {
namespace sim {

namespace {

using energy::Engine;

constexpr SchemeInfo kRegistry[] = {
    {Scheme::Uncompressed, "Uncompressed", "uncompressed", Engine::None},
    {Scheme::Uncompressed8x, "Uncompressed8x", "uncompressed8x",
     Engine::None},
    {Scheme::Adaptive, "Adaptive", "adaptive", Engine::CPack},
    {Scheme::Decoupled, "Decoupled", "decoupled", Engine::CPack},
    {Scheme::Sc2, "SC2", "sc2", Engine::Sc2},
    {Scheme::Morc, "MORC", "morc", Engine::Lbe},
    {Scheme::MorcMerged, "MORCMerged", "morc-merged", Engine::Lbe},
    {Scheme::OracleIntra, "Oracle-Intra", "oracle-intra", Engine::None},
    {Scheme::OracleInter, "Oracle-Inter", "oracle-inter", Engine::None},
    {Scheme::Touche, "Touche", "touche", Engine::CPack},
};

/** schemeInfo() indexes the registry by enum value. */
constexpr bool
rowsInEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kRegistry); i++) {
        if (static_cast<std::size_t>(kRegistry[i].scheme) != i)
            return false;
    }
    return true;
}
static_assert(rowsInEnumOrder(), "registry rows must follow the enum");

} // namespace

std::span<const SchemeInfo>
allSchemes()
{
    return kRegistry;
}

const SchemeInfo &
schemeInfo(Scheme s)
{
    return kRegistry[static_cast<std::size_t>(s)];
}

bool
schemeFromCliName(const std::string &name, Scheme *out)
{
    if (name == "ideal") { // legacy alias kept for old scripts
        *out = Scheme::OracleIntra;
        return true;
    }
    for (const SchemeInfo &info : allSchemes()) {
        if (name == info.cliName) {
            *out = info.scheme;
            return true;
        }
    }
    return false;
}

std::unique_ptr<cache::Llc>
makeLlc(Scheme scheme, std::uint64_t capacity_bytes,
        const core::MorcConfig *morc_override)
{
    switch (scheme) {
      case Scheme::Uncompressed:
      case Scheme::Uncompressed8x:
        return std::make_unique<cache::UncompressedCache>(capacity_bytes);
      case Scheme::Adaptive: {
        cache::AdaptiveCache::Config cfg;
        cfg.capacityBytes = capacity_bytes;
        return std::make_unique<cache::AdaptiveCache>(cfg);
      }
      case Scheme::Decoupled: {
        cache::DecoupledCache::Config cfg;
        cfg.capacityBytes = capacity_bytes;
        return std::make_unique<cache::DecoupledCache>(cfg);
      }
      case Scheme::Sc2: {
        cache::Sc2Cache::Config cfg;
        cfg.capacityBytes = capacity_bytes;
        return std::make_unique<cache::Sc2Cache>(cfg);
      }
      case Scheme::Morc:
      case Scheme::MorcMerged: {
        core::MorcConfig cfg;
        if (morc_override)
            cfg = *morc_override;
        cfg.capacityBytes = capacity_bytes;
        cfg.mergedTags = scheme == Scheme::MorcMerged;
        return std::make_unique<core::LogCache>(cfg);
      }
      case Scheme::OracleIntra:
        return std::make_unique<cache::IdealCache>(
            cache::OracleScope::IntraLine, capacity_bytes);
      case Scheme::OracleInter:
        return std::make_unique<cache::IdealCache>(
            cache::OracleScope::InterLine, capacity_bytes);
      case Scheme::Touche: {
        cache::ToucheCache::Config cfg;
        cfg.capacityBytes = capacity_bytes;
        return std::make_unique<cache::ToucheCache>(cfg);
      }
    }
    return nullptr;
}

} // namespace sim
} // namespace morc
