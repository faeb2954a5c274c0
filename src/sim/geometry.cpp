#include "sim/geometry.hpp"

#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace authenticache::sim {

CacheGeometry::CacheGeometry(std::uint64_t size_bytes,
                             std::uint32_t line_bytes, std::uint32_t ways)
    : bytes(size_bytes), lineSize(line_bytes), numWays(ways)
{
    if (line_bytes < 8 || !std::has_single_bit(line_bytes))
        throw std::invalid_argument("CacheGeometry: bad line size");
    if (ways == 0)
        throw std::invalid_argument("CacheGeometry: zero ways");
    // A set's bytes in 64 bits: the 32-bit product can wrap to 0.
    const std::uint64_t set_bytes = std::uint64_t{line_bytes} * ways;
    if (!std::has_single_bit(size_bytes) && size_bytes % set_bytes)
        throw std::invalid_argument("CacheGeometry: size not divisible");
    std::uint64_t lines_total = size_bytes / line_bytes;
    if (lines_total % ways != 0 || lines_total == 0)
        throw std::invalid_argument("CacheGeometry: bad associativity");
    if (lines_total / ways > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("CacheGeometry: 2^32 sets or more");
    numSets = static_cast<std::uint32_t>(lines_total / ways);
}

std::uint64_t
CacheGeometry::lineIndex(const LinePoint &p) const
{
    if (!contains(p))
        throw std::out_of_range("CacheGeometry: point outside cache");
    return static_cast<std::uint64_t>(p.set) * numWays + p.way;
}

LinePoint
CacheGeometry::pointOf(std::uint64_t line_index) const
{
    if (line_index >= lines())
        throw std::out_of_range("CacheGeometry: line index outside cache");
    return LinePoint{static_cast<std::uint32_t>(line_index / numWays),
                     static_cast<std::uint32_t>(line_index % numWays)};
}

std::uint64_t
CacheGeometry::possibleCrps() const
{
    std::uint64_t n = lines();
    return n * (n - 1) / 2;
}

std::string
CacheGeometry::describe() const
{
    std::ostringstream os;
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        os << bytes / (1024 * 1024) << "MB";
    else
        os << bytes / 1024 << "KB";
    os << " (" << numSets << " sets x " << numWays << " ways, "
       << lineSize << "B lines)";
    return os.str();
}

} // namespace authenticache::sim
