#include "util/simd.hh"

#if defined(__x86_64__) && !defined(MORC_FORCE_SCALAR)
#define MORC_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace morc {
namespace simd {

#ifdef MORC_SIMD_SSE2

// ---------------------------------------------------------------------
// SSE2: part of the x86-64 baseline ISA, so no CPU check is needed. The
// scalar reference in the #else branch defines the semantics; these
// return identical results.
// ---------------------------------------------------------------------

int
findU32(const std::uint32_t *a, std::size_t n, std::uint32_t key)
{
    const __m128i vkey = _mm_set1_epi32(static_cast<int>(key));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + i));
        const int m = _mm_movemask_ps(
            _mm_castsi128_ps(_mm_cmpeq_epi32(v, vkey)));
        if (m)
            return static_cast<int>(i) + __builtin_ctz(m);
    }
    for (; i < n; i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

int
findU64(const std::uint64_t *a, std::size_t n, std::uint64_t key)
{
    // SSE2 has no 64-bit compare; compare 32-bit halves and require a
    // fully-set 8-byte group per lane.
    const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a + i));
        const int m = _mm_movemask_epi8(_mm_cmpeq_epi32(v, vkey));
        if ((m & 0x00ff) == 0x00ff)
            return static_cast<int>(i);
        if ((m & 0xff00) == 0xff00)
            return static_cast<int>(i) + 1;
    }
    for (; i < n; i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

unsigned
zeroMask8(const std::uint32_t *w)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(w));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(w + 4));
    const unsigned mlo = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, zero))));
    const unsigned mhi = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(hi, zero))));
    return mlo | (mhi << 4);
}

void
hashFind8(const std::uint32_t *slots, unsigned groupsLog2,
          const std::uint32_t *w, unsigned skip, int *out)
{
    const unsigned gmask = (1u << groupsLog2) - 1;
    const __m128i zero = _mm_setzero_si128();
    for (unsigned i = 0; i < 8; i++) {
        if ((skip >> i) & 1)
            continue;
        const std::uint32_t v = w[i];
        const __m128i vk = _mm_set1_epi32(static_cast<int>(v));
        unsigned g = hashGroup(v, groupsLog2);
        for (;;) {
            const std::uint32_t *grp = slots + std::size_t{g} * 8;
            const __m128i lo = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(grp));
            const __m128i hi = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(grp + 4));
            const unsigned match =
                static_cast<unsigned>(_mm_movemask_ps(
                    _mm_castsi128_ps(_mm_cmpeq_epi32(lo, vk)))) |
                (static_cast<unsigned>(_mm_movemask_ps(
                     _mm_castsi128_ps(_mm_cmpeq_epi32(hi, vk))))
                 << 4);
            if (match) { // values unique: exactly one slot can match
                out[i] = static_cast<int>(
                    g * 8 + static_cast<unsigned>(__builtin_ctz(match)));
                break;
            }
            const unsigned empty =
                static_cast<unsigned>(_mm_movemask_ps(
                    _mm_castsi128_ps(_mm_cmpeq_epi32(lo, zero)))) |
                (static_cast<unsigned>(_mm_movemask_ps(
                     _mm_castsi128_ps(_mm_cmpeq_epi32(hi, zero))))
                 << 4);
            if (empty) {
                out[i] = -1;
                break;
            }
            g = (g + 1) & gmask;
        }
    }
}

#else // !MORC_SIMD_SSE2

// ---------------------------------------------------------------------
// Scalar reference: every non-x86-64 target and the force-scalar build.
// These define the semantics the SSE2 kernels above reproduce.
// ---------------------------------------------------------------------

int
findU32(const std::uint32_t *a, std::size_t n, std::uint32_t key)
{
    for (std::size_t i = 0; i < n; i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

int
findU64(const std::uint64_t *a, std::size_t n, std::uint64_t key)
{
    for (std::size_t i = 0; i < n; i++) {
        if (a[i] == key)
            return static_cast<int>(i);
    }
    return -1;
}

unsigned
zeroMask8(const std::uint32_t *w)
{
    unsigned m = 0;
    for (unsigned i = 0; i < 8; i++)
        m |= (w[i] == 0 ? 1u : 0u) << i;
    return m;
}

void
hashFind8(const std::uint32_t *slots, unsigned groupsLog2,
          const std::uint32_t *w, unsigned skip, int *out)
{
    const unsigned gmask = (1u << groupsLog2) - 1;
    for (unsigned i = 0; i < 8; i++) {
        if ((skip >> i) & 1)
            continue;
        const std::uint32_t v = w[i];
        unsigned g = hashGroup(v, groupsLog2);
        int res = -1;
        for (;;) {
            const std::uint32_t *grp = slots + std::size_t{g} * 8;
            // A match anywhere in the group wins over an empty slot:
            // insertion fills the first empty slot, so a present value
            // always precedes the empties of its probe sequence.
            bool empty = false;
            unsigned k = 0;
            for (; k < 8; k++) {
                if (grp[k] == v) {
                    res = static_cast<int>(g * 8 + k);
                    break;
                }
                empty = empty || grp[k] == 0;
            }
            if (k < 8 || empty)
                break;
            g = (g + 1) & gmask;
        }
        out[i] = res;
    }
}

#endif // MORC_SIMD_SSE2

} // namespace simd
} // namespace morc
