#include "crypto/feistel.hpp"

#include <cassert>
#include <cstring>
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
    // Writing round-major fills index (round << halfBits) | half.
    const std::uint64_t halves = 1ull << halfBits;
    const std::size_t width = halfBits <= 8 ? 1 : 2;
    table.resize(rounds * halves * width);
    std::uint8_t *out = table.data();
    for (unsigned r = 0; r < rounds; ++r) {
        for (std::uint64_t half = 0; half < halves; ++half) {
            std::uint64_t input = (static_cast<std::uint64_t>(r) << 56) ^
                                  (domainSize << 32) ^ half;
            const auto value = static_cast<std::uint16_t>(
                siphash24(key, input) & (halves - 1));
            if (width == 1)
                *out = static_cast<std::uint8_t>(value);
            else
                std::memcpy(out, &value, sizeof value);
            out += width;
        }
    }
}

template <typename Entry>
std::uint64_t
FeistelPermutation::roundValue(unsigned round, std::uint64_t half) const
{
    const std::size_t i =
        (static_cast<std::size_t>(round) << halfBits) | half;
    Entry value;
    std::memcpy(&value, table.data() + i * sizeof value, sizeof value);
    return value;
}

template <typename Entry>
std::uint64_t
FeistelPermutation::mapWith(std::uint64_t x) const
{
    const std::uint64_t mask = (1ull << halfBits) - 1;
    // Cycle walking: iterate until the image lands inside the domain.
    do {
        std::uint64_t left = x >> halfBits;
        std::uint64_t right = x & mask;
        for (unsigned r = 0; r < rounds; ++r) {
            std::uint64_t next = left ^ roundValue<Entry>(r, right);
            left = right;
            right = next;
        }
        x = (left << halfBits) | right;
    } while (x >= domainSize);
    return x;
}

template <typename Entry>
std::uint64_t
FeistelPermutation::unmapWith(std::uint64_t y) const
{
    const std::uint64_t mask = (1ull << halfBits) - 1;
    do {
        std::uint64_t left = y >> halfBits;
        std::uint64_t right = y & mask;
        for (unsigned r = rounds; r-- > 0;) {
            std::uint64_t prev = right ^ roundValue<Entry>(r, left);
            right = left;
            left = prev;
        }
        y = (left << halfBits) | right;
    } while (y >= domainSize);
    return y;
}

std::uint64_t
FeistelPermutation::map(std::uint64_t x) const
{
    assert(x < domainSize);
    return halfBits <= 8 ? mapWith<std::uint8_t>(x)
                         : mapWith<std::uint16_t>(x);
}

std::uint64_t
FeistelPermutation::unmap(std::uint64_t y) const
{
    assert(y < domainSize);
    return halfBits <= 8 ? unmapWith<std::uint8_t>(y)
                         : unmapWith<std::uint16_t>(y);
}

} // namespace authenticache::crypto
