/**
 * @file
 * LLC scheme selection: a factory over every cache model in the study.
 */

#ifndef MORC_SIM_SCHEME_HH
#define MORC_SIM_SCHEME_HH

#include <memory>
#include <span>
#include <string>

#include "cache/llc.hh"
#include "core/morc.hh"
#include "energy/energy.hh"

namespace morc {
namespace sim {

/** Every LLC evaluated in the paper (plus arena extensions). */
enum class Scheme
{
    Uncompressed,
    Uncompressed8x, // 1 MB-per-core baseline of Figure 9
    Adaptive,
    Decoupled,
    Sc2,
    Morc,
    MorcMerged,
    OracleIntra,
    OracleInter,
    Touche, // appended last: earlier values are config fingerprints
};

/** One registry row: the enum value, its display name, the
 *  lower-case name CLI tools accept, and its compression engine. */
struct SchemeInfo
{
    Scheme scheme;
    const char *name;      // display name matching the paper's legends
    const char *cliName;   // morc_check / run_benches spelling
    energy::Engine engine; // compression engine (for the energy model)
};

/**
 * The single authoritative scheme list, in enum order. Every
 * enumerating surface (morc_check --scheme=all, morc_sweep --list-schemes,
 * design-space arenas, the lifetime figure) iterates this registry, so
 * a scheme added here appears everywhere at once.
 */
std::span<const SchemeInfo> allSchemes();

/** The registry row of @p s. */
const SchemeInfo &schemeInfo(Scheme s);

/** Display name matching the paper's legends. */
inline const char *
schemeName(Scheme s)
{
    return schemeInfo(s).name;
}

/** Parse a CLI scheme name (also accepts the legacy "ideal" alias for
 *  oracle-intra). @return false when @p name is unknown. */
bool schemeFromCliName(const std::string &name, Scheme *out);

/**
 * Build an LLC of @p scheme with @p capacity_bytes of data storage.
 * MORC variants accept an optional config override (capacity is still
 * taken from @p capacity_bytes).
 */
std::unique_ptr<cache::Llc>
makeLlc(Scheme scheme, std::uint64_t capacity_bytes,
        const core::MorcConfig *morc_override = nullptr);

} // namespace sim
} // namespace morc

#endif // MORC_SIM_SCHEME_HH
