/**
 * @file
 * Strict parsing of unsigned counts given on a command line or in an
 * environment variable. Shared by morc_sweep and morc_check, so a
 * malformed value ("abc", "5e3", "-1", "7junk", "") is an error in
 * both rather than a silent zero, prefix or wrapped value.
 */

#ifndef MORC_UTIL_PARSE_HH
#define MORC_UTIL_PARSE_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <system_error>

namespace morc {
namespace util {

/** Strict decimal parse of @p s (digits only: no sign, space or base
 *  prefix) into [@p lo, @p hi]. @return false on a bad value. */
inline bool
parseCount(std::string_view s, std::uint64_t lo, std::uint64_t hi,
           std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (s.empty() || ptr != end || ec != std::errc() || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/** parseCount() that names @p what and the bad value on stderr. */
inline bool
parseCount(const char *what, const char *s, std::uint64_t lo,
           std::uint64_t hi, std::uint64_t &out)
{
    if (parseCount(std::string_view(s), lo, hi, out))
        return true;
    std::fprintf(stderr, "%s: bad value '%s'\n", what, s);
    return false;
}

} // namespace util
} // namespace morc

#endif // MORC_UTIL_PARSE_HH
