/**
 * @file
 * The Authenticache error map: the 3D structure of Figure 4.
 *
 * Each supply-voltage level owns an error plane over the cache's
 * (set, way) coordinates: the lines that report correctable ECC
 * errors at that voltage. Planes are sparse (tens to hundreds of
 * errors in tens of thousands of lines), so each plane stores only
 * its errors' line indices (set * ways + way), ascending -- which is
 * (set, way) order -- in one exactly sized vector of 32-bit values;
 * membership is a binary search.
 */

#ifndef AUTH_CORE_ERROR_MAP_HPP
#define AUTH_CORE_ERROR_MAP_HPP

#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "sim/geometry.hpp"

namespace authenticache::core {

using sim::CacheGeometry;
using sim::LinePoint;

/** Supply voltage level in millivolts, the z axis of the map. */
using VddMv = std::uint32_t;

/**
 * Most lines an error plane can address: each error is stored as a
 * 32-bit line index. It is also the Feistel permutation's domain
 * limit (crypto/feistel.hpp), so no keyed geometry is larger.
 */
inline constexpr std::uint64_t kMaxPlaneLines = std::uint64_t{1} << 32;

/** One voltage level's error plane. */
class ErrorPlane
{
  public:
    /**
     * Throws std::invalid_argument when @p geometry has more than
     * kMaxPlaneLines lines.
     */
    explicit ErrorPlane(const CacheGeometry &geometry);

    /**
     * Mark a line as erroneous; idempotent. add, remove and contains
     * throw std::out_of_range for a point outside the geometry.
     */
    void add(const LinePoint &p);

    /**
     * Mark every line of @p points (any order, duplicates allowed) in
     * one sort-and-dedup pass. On an out-of-range point it throws
     * std::out_of_range and leaves the plane unchanged.
     */
    void addAll(std::span<const LinePoint> points);

    /** Unmark a line; idempotent. */
    void remove(const LinePoint &p);

    bool contains(const LinePoint &p) const;

    /**
     * The errors in sorted (set, way) order: a random-access view
     * that decodes errorLines() into LinePoint values and allocates
     * nothing. It reads the plane in place, so it is valid until the
     * plane changes or moves (see ErrorMap::plane).
     */
    auto errors() const
    {
        return std::views::iota(std::uint32_t{0},
                                static_cast<std::uint32_t>(errorCount())) |
               std::views::transform(
                   [this](std::uint32_t i) { return geom.pointOf(lines[i]); });
    }

    /**
     * The errors' line indices, ascending: the stream the
     * nearest-error kernel reads (nearestDistancesLines).
     */
    std::span<const std::uint32_t> errorLines() const { return lines; }

    std::size_t errorCount() const { return lines.size(); }

    const CacheGeometry &geometry() const { return geom; }

    bool operator==(const ErrorPlane &) const = default;

  private:
    /** lineIndex(p); throws std::out_of_range outside the geometry. */
    std::uint32_t indexOf(const LinePoint &p) const;

    CacheGeometry geom;
    std::vector<std::uint32_t> lines; ///< Ascending, no duplicates.
};

/** Multi-voltage error map. */
class ErrorMap
{
  public:
    explicit ErrorMap(const CacheGeometry &geometry);

    const CacheGeometry &geometry() const { return geom; }

    /**
     * Get (or create) the plane at a voltage level. The planes live
     * in one level-sorted vector, so creating a plane invalidates
     * every reference, pointer and errors() view into the map's other
     * planes: create all levels before holding on to any plane.
     */
    ErrorPlane &plane(VddMv level);

    /** Read-only plane access; throws if the level is absent. */
    const ErrorPlane &plane(VddMv level) const;

    bool hasPlane(VddMv level) const;

    /** All recorded voltage levels, ascending. */
    std::vector<VddMv> levels() const;

    /**
     * Record a whole sweep result at one voltage, in one
     * sort-and-dedup pass (ErrorPlane::addAll).
     */
    void addSweep(VddMv level, std::span<const LinePoint> lines);

    /** Total errors across all planes. */
    std::size_t totalErrors() const;

    bool operator==(const ErrorMap &) const = default;

  private:
    /** The first plane at or above @p level. */
    std::vector<std::pair<VddMv, ErrorPlane>>::const_iterator
    lowerBound(VddMv level) const;

    CacheGeometry geom;
    std::vector<std::pair<VddMv, ErrorPlane>> planes; ///< By level.
};

/**
 * Policy for combining error maps captured under different
 * environmental conditions into one enrollment map (robust
 * enrollment: the factory characterizes the die cold and hot so the
 * enrolled fingerprint already spans the field envelope).
 */
enum class CombinePolicy
{
    Union,        ///< A line in any capture is enrolled.
    Intersection, ///< Only lines present in every capture.
    Majority,     ///< Lines present in more than half the captures.
};

/**
 * Combine same-geometry maps level by level under a policy. Levels
 * absent from some captures are treated as empty planes there.
 */
ErrorMap combineErrorMaps(const std::vector<ErrorMap> &maps,
                          CombinePolicy policy);

} // namespace authenticache::core

#endif // AUTH_CORE_ERROR_MAP_HPP
