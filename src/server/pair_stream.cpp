#include "server/pair_stream.hpp"

#include <cmath>

namespace authenticache::server {

std::pair<std::uint64_t, std::uint64_t>
unrankPair(std::uint64_t rank)
{
    auto hi = static_cast<std::uint64_t>(
        (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(rank))) / 2.0);
    // The double root can be off by one either way; correct it.
    while (hi * (hi - 1) / 2 > rank)
        --hi;
    while ((hi + 1) * hi / 2 <= rank)
        ++hi;
    return {rank - hi * (hi - 1) / 2, hi};
}

} // namespace authenticache::server
