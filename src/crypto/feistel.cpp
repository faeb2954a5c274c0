#include "crypto/feistel.hpp"

#include <cassert>
#include <stdexcept>

namespace authenticache::crypto {

FeistelPermutation::FeistelPermutation(const SipHashKey &key,
                                       std::uint64_t domain,
                                       unsigned rounds_)
    : domainSize(domain), rounds(rounds_)
{
    assert(domain >= 2);
    assert(rounds >= 3);
    if (domain > (1ull << 32))
        throw std::invalid_argument(
            "FeistelPermutation: domain above 2^32");
    // Smallest even-bit-width power of two covering the domain, so the
    // Feistel halves are balanced.
    unsigned bits = 2;
    while ((domain - 1) >> bits != 0)
        bits += 2;
    halfBits = bits / 2;

    // Domain-separate rounds by folding the round index into the input.
    // Appending round-major fills index (round << halfBits) | half.
    const std::uint64_t halves = 1ull << halfBits;
    table.reserve(rounds * halves);
    for (unsigned r = 0; r < rounds; ++r) {
        for (std::uint64_t half = 0; half < halves; ++half) {
            std::uint64_t input = (static_cast<std::uint64_t>(r) << 56) ^
                                  (domainSize << 32) ^ half;
            table.push_back(static_cast<std::uint16_t>(
                siphash24(key, input) & (halves - 1)));
        }
    }
}

std::uint64_t
FeistelPermutation::permuteOnce(std::uint64_t x) const
{
    const std::uint64_t mask = (1ull << halfBits) - 1;
    std::uint64_t left = x >> halfBits;
    std::uint64_t right = x & mask;
    for (unsigned r = 0; r < rounds; ++r) {
        std::uint64_t next = left ^ roundValue(r, right);
        left = right;
        right = next;
    }
    return (left << halfBits) | right;
}

std::uint64_t
FeistelPermutation::unpermuteOnce(std::uint64_t y) const
{
    const std::uint64_t mask = (1ull << halfBits) - 1;
    std::uint64_t left = y >> halfBits;
    std::uint64_t right = y & mask;
    for (unsigned r = rounds; r-- > 0;) {
        std::uint64_t prev = right ^ roundValue(r, left);
        right = left;
        left = prev;
    }
    return (left << halfBits) | right;
}

std::uint64_t
FeistelPermutation::map(std::uint64_t x) const
{
    assert(x < domainSize);
    // Cycle walking: iterate until the image lands inside the domain.
    std::uint64_t y = permuteOnce(x);
    while (y >= domainSize)
        y = permuteOnce(y);
    return y;
}

std::uint64_t
FeistelPermutation::unmap(std::uint64_t y) const
{
    assert(y < domainSize);
    std::uint64_t x = unpermuteOnce(y);
    while (x >= domainSize)
        x = unpermuteOnce(x);
    return x;
}

} // namespace authenticache::crypto
