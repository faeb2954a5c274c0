/**
 * @file
 * SipHash-2-4 keyed pseudo random function. Used as the round function
 * of the format-preserving permutation that remaps physical error-map
 * coordinates to logical ones (paper Sec 4.3/4.5).
 */

#ifndef AUTH_CRYPTO_SIPHASH_HPP
#define AUTH_CRYPTO_SIPHASH_HPP

#include <array>
#include <cstdint>
#include <span>

#include "util/simd.hpp"

namespace authenticache::crypto {

/** 128-bit SipHash key. */
struct SipHashKey
{
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;

    bool operator==(const SipHashKey &) const = default;
};

/** SipHash-2-4 of a byte span under the given key. */
std::uint64_t siphash24(const SipHashKey &key,
                        std::span<const std::uint8_t> data);

/** Convenience: SipHash-2-4 of a single 64-bit word. */
std::uint64_t siphash24(const SipHashKey &key, std::uint64_t word);

/**
 * out[i] = siphash24(key, first + i) for every i < out.size(): the
 * run of words a Feistel round table is filled from. At
 * SimdLevel::Avx2 (clamped to the CPU) eight words are hashed at a
 * time, in two independent four-lane states so that one state's
 * dependency chain hides the other's latency; every level gives the
 * same values.
 */
void siphash24Words(const SipHashKey &key, std::uint64_t first,
                    std::span<std::uint64_t> out, util::SimdLevel level);

} // namespace authenticache::crypto

#endif // AUTH_CRYPTO_SIPHASH_HPP
