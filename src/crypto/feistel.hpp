/**
 * @file
 * Keyed format-preserving permutation over an arbitrary domain [0, n).
 *
 * Authenticache never exposes physical error coordinates in challenges:
 * the server and client agree on a key K_A and communicate *logical*
 * coordinates produced by a keyed bijection of the cache's line index
 * space (paper Sec 4.3, Figure 6). We realize the bijection as a
 * balanced Feistel network over the smallest power-of-four domain
 * covering n, with SipHash-2-4 round functions and cycle walking to
 * stay inside [0, n). Each round function has only 2^halfBits inputs,
 * so all of them are computed once at construction and a round is a
 * table lookup.
 */

#ifndef AUTH_CRYPTO_FEISTEL_HPP
#define AUTH_CRYPTO_FEISTEL_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"
#include "util/simd.hpp"

namespace authenticache::crypto {

/**
 * Keyed bijection over [0, domain). Both directions are O(rounds)
 * table lookups amortized; cycle walking visits out-of-range points of
 * the covering power-of-two domain but never more than a few in
 * expectation. The round table holds rounds * 2^halfBits values of
 * halfBits bits each, one byte per value up to halfBits = 8 (every
 * domain up to 65 536 lines) and two bytes above: 192 B at 1024
 * lines, 1.5 KB at 65 536 lines.
 */
class FeistelPermutation
{
  public:
    /**
     * @param key 128-bit permutation key.
     * @param domain Size of the permuted domain; must be >= 2.
     *               Throws std::invalid_argument above 2^32, where a
     *               Feistel half would exceed 16 bits.
     * @param rounds Feistel rounds; 4 suffices for PRP behaviour with
     *               independent round functions, default is 6.
     */
    FeistelPermutation(const SipHashKey &key, std::uint64_t domain,
                       unsigned rounds = 6);

    /**
     * The same permutation with its round table filled at a pinned
     * path (see siphash24Words); the table is the same at every level.
     */
    FeistelPermutation(const SipHashKey &key, std::uint64_t domain,
                       unsigned rounds, util::SimdLevel level);

    /** Forward mapping (physical -> logical). */
    std::uint64_t map(std::uint64_t x) const;

    /** Inverse mapping (logical -> physical). */
    std::uint64_t unmap(std::uint64_t y) const;

    std::uint64_t domain() const { return domainSize; }

    /** The round table's bytes, for comparing construction paths. */
    std::span<const std::uint8_t> roundTable() const { return table; }

  private:
    // Entry is the round table's entry type (std::uint8_t or
    // std::uint16_t), fixed per permutation, so map and unmap choose
    // it once per call rather than once per round.
    template <typename Entry>
    std::uint64_t mapWith(std::uint64_t x) const;
    template <typename Entry>
    std::uint64_t unmapWith(std::uint64_t y) const;
    template <typename Entry>
    std::uint64_t roundValue(unsigned round, std::uint64_t half) const;

    std::uint64_t domainSize;
    unsigned rounds;
    unsigned halfBits; // Bits per Feistel half of the covering domain.
    // Masked SipHash round function, indexed (round << halfBits) | half:
    // one byte per entry when halfBits <= 8, else two in host order.
    std::vector<std::uint8_t> table;
};

} // namespace authenticache::crypto

#endif // AUTH_CRYPTO_FEISTEL_HPP
