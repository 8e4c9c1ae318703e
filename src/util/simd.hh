/**
 * @file
 * SIMD kernels for the compression hot path, with a scalar reference
 * implementation.
 *
 * Every kernel is an *exact* search/compare primitive — first-match
 * index or a zero-lane mask — so all implementations return bit-for-bit
 * identical results by construction; `tests/compress/lbe_simd_equiv_test.cc`
 * proves it differentially. The LBE encoder replaces its per-word hash
 * lookups with these scans: dictionaries are small (<=128 words,
 * <=255 tree nodes) and reset per log, so a vector scan beats hashing
 * while keeping the dictionary a plain flat array.
 *
 * Each build compiles exactly one implementation of each kernel, picked
 * by the compiler: SSE2 on x86-64, where it is part of the baseline ISA
 * and needs no CPU check, and the scalar reference everywhere else and
 * under `MORC_FORCE_SCALAR` (CMake `-DMORC_FORCE_SCALAR=ON`, the
 * `force-scalar` preset) — the CI matrix proves goldens do not depend
 * on the vector units. The kernels are pure functions with no global
 * state.
 */

#ifndef MORC_UTIL_SIMD_HH
#define MORC_UTIL_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace morc {
namespace simd {

/**
 * First index i < n with a[i] == key, or -1.
 * The LBE 32-bit dictionary match.
 */
int findU32(const std::uint32_t *a, std::size_t n, std::uint32_t key);

/**
 * First index i < n with a[i] == key, or -1.
 * The LBE tree-node match (nodes packed as left | right << 32).
 */
int findU64(const std::uint64_t *a, std::size_t n, std::uint64_t key);

/**
 * Zero-lane mask over 8 consecutive 32-bit words: bit i is set when
 * w[i] == 0. One LBE 256-bit chunk's zero scan in a single call.
 */
unsigned zeroMask8(const std::uint32_t *w);

/**
 * Batched probe of a bucketized open-addressing hash table whose slots
 * hold nonzero 32-bit values (0 = empty). The table is laid out as
 * 2^groupsLog2 groups of 8 consecutive slots; a value's home group is
 * the Fibonacci hash of the value (hashGroup below), and insertion
 * claims the first empty slot scanning groups in sequence. For each
 * lane i in [0, 8) whose bit in @p skip is clear, out[i] receives the
 * slot index holding w[i], or -1 when absent. Lanes with their skip
 * bit set are untouched.
 *
 * Each group is checked with two 4-wide vector compares on SSE2: a
 * match anywhere in the group wins; otherwise an empty slot in the
 * group proves absence (insertion never skips past an empty slot);
 * otherwise probing continues at the next group. Values must be unique
 * in the table, so all implementations agree on the matched slot.
 * This is the LBE 32-bit dictionary match: one call resolves a whole
 * 256-bit chunk against the committed dictionary.
 */
void hashFind8(const std::uint32_t *slots, unsigned groupsLog2,
               const std::uint32_t *w, unsigned skip, int *out);

/** Home group of value @p v in a hashFind8 table (Fibonacci hash). */
inline unsigned
hashGroup(std::uint32_t v, unsigned groupsLog2)
{
    return groupsLog2 ? (v * 0x9E3779B1u) >> (32u - groupsLog2) : 0u;
}

} // namespace simd
} // namespace morc

#endif // MORC_UTIL_SIMD_HH
