/**
 * @file
 * Cache geometry: sizes, set/way coordinates, and the bi-dimensional
 * plane the paper maps cache lines onto (Sec 4, Figure 4). The x axis
 * is the set index and the y axis is the way index; Manhattan distances
 * for the challenge-response function are measured on this plane.
 */

#ifndef AUTH_SIM_GEOMETRY_HPP
#define AUTH_SIM_GEOMETRY_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace authenticache::sim {

/** A cache line coordinate on the (set, way) plane. */
struct LinePoint
{
    std::uint32_t set = 0;
    std::uint32_t way = 0;

    bool operator==(const LinePoint &) const = default;
    auto operator<=>(const LinePoint &) const = default;
};

/** Manhattan distance between two points (paper Eq 9). */
inline std::uint64_t
manhattan(const LinePoint &a, const LinePoint &b)
{
    std::uint64_t dx = a.set > b.set ? a.set - b.set : b.set - a.set;
    std::uint64_t dy = a.way > b.way ? a.way - b.way : b.way - a.way;
    return dx + dy;
}

/**
 * Set-associative cache geometry. Immutable after construction;
 * validates that sizes are coherent powers of two.
 */
class CacheGeometry
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param line_bytes Line size (default 64B).
     * @param ways Associativity (default 8).
     * Throws std::invalid_argument on an incoherent shape or on 2^32
     * sets or more (sets() is 32 bits).
     */
    CacheGeometry(std::uint64_t size_bytes, std::uint32_t line_bytes = 64,
                  std::uint32_t ways = 8);

    std::uint64_t sizeBytes() const { return bytes; }
    std::uint32_t lineBytes() const { return lineSize; }
    std::uint32_t ways() const { return numWays; }
    std::uint32_t sets() const { return numSets; }

    /** Total number of cache lines. */
    std::uint64_t lines() const
    {
        return static_cast<std::uint64_t>(numSets) * numWays;
    }

    /** 64-bit words per line. */
    std::uint32_t wordsPerLine() const { return lineSize / 8; }

    /** Flat line index of a coordinate (row-major: set * ways + way). */
    std::uint64_t lineIndex(const LinePoint &p) const;

    /** Coordinate of a flat line index. */
    LinePoint pointOf(std::uint64_t line_index) const;

    /** True when the point addresses a valid line. */
    bool contains(const LinePoint &p) const
    {
        return p.set < numSets && p.way < numWays;
    }

    /**
     * Number of distinct single-bit challenges the plane supports,
     * i.e. edges of the complete graph over lines (paper Eq 10).
     */
    std::uint64_t possibleCrps() const;

    /** Human-readable description like "4MB (8192 sets x 8 ways)". */
    std::string describe() const;

    bool operator==(const CacheGeometry &) const = default;

  private:
    std::uint64_t bytes;
    std::uint32_t lineSize;
    std::uint32_t numWays;
    std::uint32_t numSets;
};

} // namespace authenticache::sim

#endif // AUTH_SIM_GEOMETRY_HPP
