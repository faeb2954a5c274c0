/**
 * @file
 * Runtime SIMD capability detection and width selection.
 *
 * The hot kernels (core::nearestDistancesSoA, ecc::SecdedCodec batch
 * encode/decode) ship scalar, SSE2, and AVX2 implementations that
 * produce bit-identical results; the widest instruction set the CPU
 * supports is selected once at startup. The hashes on the auth path
 * (util::crc32Update, crypto::Sha256, the FeistelPermutation round
 * table) have a portable body and a hardware body taken at AVX2.
 * Every kernel also accepts an explicit SimdLevel so tests and
 * benchmarks can pin a width.
 *
 * The environment variable AUTHENTICACHE_SIMD overrides the choice
 * ("scalar", "sse2", or "avx2", case-sensitive); a request the CPU
 * cannot honor is clamped down to the widest supported level with a
 * one-time warning on stderr. This is how CI exercises every code
 * path on one machine and how a production fleet can pin a width
 * across heterogeneous hardware.
 *
 * Determinism contract: the selected width never changes results --
 * the bit-identical replay, fault-sweep, and determinism-lint suites
 * pass identically at every level (tests/test_simd_dispatch.cpp and
 * the differential fuzz in tests/test_nearest_scan.cpp enforce it).
 */

#ifndef AUTH_UTIL_SIMD_HPP
#define AUTH_UTIL_SIMD_HPP

#include <string>
#include <vector>

namespace authenticache::util {

/** Kernel instruction-set width, narrowest to widest. */
enum class SimdLevel
{
    Scalar, ///< Portable C++; always available.
    Sse2,   ///< 128-bit integer SIMD (x86-64 baseline).
    Avx2,   ///< 256-bit integer SIMD.
};

/** Canonical lowercase name ("scalar", "sse2", "avx2"). */
const char *simdLevelName(SimdLevel level);

/** The widest level this CPU supports (no env override applied). */
SimdLevel detectedSimdLevel();

/**
 * The level hot-path kernels dispatch to by default: the detected
 * level, overridden (and clamped to what the CPU supports) by
 * AUTHENTICACHE_SIMD. Resolved once and cached for the process.
 */
SimdLevel simdLevel();

/** All levels this CPU can run, narrowest first (always >= 1). */
std::vector<SimdLevel> supportedSimdLevels();

/**
 * CPUID feature bits beside the vector width. The hash kernels
 * (util::crc32Update, crypto::Sha256) take their hardware body only
 * at SimdLevel::Avx2 and only when the extension they use is present:
 * PCLMULQDQ (carry-less multiply) for the CRC-32 fold, the SHA
 * extensions for the SHA-256 compression. Probed once per process.
 */
bool cpuHasPclmul();
bool cpuHasSha();

namespace detail {

/**
 * Pure resolution of an override string against a detected level:
 * empty/null keeps @p detected; a recognized name is clamped to
 * @p detected; an unrecognized name keeps @p detected. Out-params
 * report clamping/parse failure so callers can warn. Exposed
 * separately from the cached simdLevel() so tests can drive every
 * branch without re-execing the process.
 */
SimdLevel resolveSimdLevel(const char *override_name,
                           SimdLevel detected, bool *clamped,
                           bool *unrecognized);

} // namespace detail

} // namespace authenticache::util

#endif // AUTH_UTIL_SIMD_HPP
