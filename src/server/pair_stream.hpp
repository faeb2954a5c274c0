/**
 * @file
 * Counter-indexed pair retirement (paper Sec 4.2, 4.4).
 *
 * No challenge pair may be issued twice, in either order. Each pair
 * stream of a device issues its i-th pair as unrank(P(i)), where P is
 * a keyed permutation of the stream's pair domain [0, N): a monotone
 * counter is the whole retirement state, and exactly-once holds by
 * construction. Streams live in physical line space:
 *   - per level, unordered pairs {lo < hi}: N = n(n-1)/2,
 *     rank = hi(hi-1)/2 + lo;
 *   - per pair of challenge levels Va < Vb: N = n^2,
 *     rank = line_at_Va * n + line_at_Vb.
 *
 * P is a 4-round *alternating unbalanced* Feistel network over exactly
 * b = ceil(log2 N) bits (halves of b - b/2 and b/2 bits, swapped each
 * round), cycle-walked into [0, N): under two tries per pair. A
 * balanced network over 2*ceil(b/2) bits would walk about twice as
 * often, on an unpredictable branch. Line counts are below 2^32 (the
 * key remap's limit), so every domain fits in 64 bits.
 */

#ifndef AUTH_SERVER_PAIR_STREAM_HPP
#define AUTH_SERVER_PAIR_STREAM_HPP

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error_map.hpp"

namespace authenticache::server {

/** The 128-bit per-record key of every pair stream. */
struct PairSeed
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const PairSeed &) const = default;
};

/** One stream's durable state. */
struct PairStream
{
    core::VddMv levelA = 0; ///< levelA <= levelB; equal: one level.
    core::VddMv levelB = 0;
    std::uint64_t counter = 0; ///< Permutation inputs used.
    /** Sorted ranks a migrated v1/v2 record retired; skipped. */
    std::vector<std::uint64_t> frozen;
};

/** MurmurHash3's 64-bit finalizer. */
constexpr std::uint64_t
fmix64(std::uint64_t h)
{
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

/** Triangular rank of the unordered pair {lo < hi}. */
constexpr std::uint64_t
rankPair(std::uint64_t lo, std::uint64_t hi)
{
    return hi * (hi - 1) / 2 + lo;
}

/** Inverse of rankPair: {lo, hi} with lo < hi. */
std::pair<std::uint64_t, std::uint64_t> unrankPair(std::uint64_t rank);

/** Keyed permutation of one stream's pair domain [0, N). */
class PairPermutation
{
  public:
    PairPermutation(std::uint64_t domain, const PairSeed &seed,
                    core::VddMv level_a, core::VddMv level_b)
        : n(domain),
          loBits(domain > 1 ? std::bit_width(domain - 1) / 2 : 0),
          hiBits(domain > 1 ? std::bit_width(domain - 1) - loBits : 0)
    {
        std::uint64_t k = fmix64(
            seed.lo ^ fmix64(seed.hi ^ (std::uint64_t{level_a} << 32 |
                                        level_b)));
        for (auto &key : keys)
            key = k = fmix64(k + 0x9e3779b97f4a7c15ull);
    }

    std::uint64_t domain() const { return n; }

    /** The permuted rank at input @p x < domain(). */
    std::uint64_t
    map(std::uint64_t x) const
    {
        do
            x = forward(x);
        while (x >= n);
        return x;
    }

    /** The input map() sends to @p y < domain(). */
    std::uint64_t
    unmap(std::uint64_t y) const
    {
        do
            y = inverse(y);
        while (y >= n);
        return y;
    }

    /** The keyed orientation bit: swap the pair's A and B ends. */
    bool swapEnds(std::uint64_t rank) const
    {
        return (fmix64(rank ^ keys[4]) & 1) != 0;
    }

  private:
    static std::uint64_t mask(unsigned w) { return (1ull << w) - 1; }

    // Round i: (l, r) -> (r, l ^ F_i(r)). The halves' widths swap
    // each round and are back in place after the fourth.
    std::uint64_t
    forward(std::uint64_t x) const
    {
        std::uint64_t l = x >> loBits, r = x & mask(loBits);
        for (unsigned i = 0; i < 4; ++i) {
            l ^= fmix64(r ^ keys[i]) & mask(i % 2 ? loBits : hiBits);
            std::swap(l, r);
        }
        return l << loBits | r;
    }

    std::uint64_t
    inverse(std::uint64_t y) const
    {
        std::uint64_t l = y >> loBits, r = y & mask(loBits);
        for (unsigned i = 4; i-- > 0;) {
            std::swap(l, r);
            l ^= fmix64(r ^ keys[i]) & mask(i % 2 ? loBits : hiBits);
        }
        return l << loBits | r;
    }

    std::uint64_t n;
    unsigned loBits;
    unsigned hiBits;
    std::uint64_t keys[5] = {}; ///< Four rounds plus orientation.
};

} // namespace authenticache::server

#endif // AUTH_SERVER_PAIR_STREAM_HPP
