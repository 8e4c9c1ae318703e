/**
 * @file
 * FNV-1a folding of 64-bit counters, used to check that two runs (or a
 * program and its mirror) produced identical counters.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>

namespace perfbench {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/** Fold the eight bytes of @p v into FNV-1a state @p h. */
inline std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++, v >>= 8)
        h = (h ^ (v & 0xff)) * 1099511628211ull;
    return h;
}

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
