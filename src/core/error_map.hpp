/**
 * @file
 * The Authenticache error map: the 3D structure of Figure 4.
 *
 * Each supply-voltage level owns a bit plane over the cache's
 * (set, way) coordinates; a set bit marks a line that reports
 * correctable ECC errors at that voltage. Planes are sparse (tens to
 * hundreds of errors in tens of thousands of lines), so each plane
 * stores a sorted list of error coordinates plus a bitmap for O(1)
 * membership.
 */

#ifndef AUTH_CORE_ERROR_MAP_HPP
#define AUTH_CORE_ERROR_MAP_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "sim/geometry.hpp"
#include "util/bitvec.hpp"

namespace authenticache::core {

using sim::CacheGeometry;
using sim::LinePoint;

/** Supply voltage level in millivolts, the z axis of the map. */
using VddMv = std::uint32_t;

/** One voltage level's error plane. */
class ErrorPlane
{
  public:
    explicit ErrorPlane(const CacheGeometry &geometry);

    /** Mark a line as erroneous; idempotent. */
    void add(const LinePoint &p);

    /** Unmark a line; idempotent. */
    void remove(const LinePoint &p);

    bool contains(const LinePoint &p) const;

    /** Error coordinates in sorted (set, way) order. */
    const std::vector<LinePoint> &errors() const { return list; }

    /**
     * Structure-of-arrays mirror of errors(): the set (and way)
     * coordinates in the same sorted order, kept in sync by
     * add/remove. This is the layout the query-major nearest-error
     * kernel (core/nearest_scan.hpp) consumes -- one contiguous stream
     * per coordinate, each error broadcast across a vector of queries.
     */
    const std::vector<std::uint32_t> &errorSets() const
    {
        return soaSets;
    }
    const std::vector<std::uint32_t> &errorWays() const
    {
        return soaWays;
    }

    std::size_t errorCount() const { return list.size(); }

    const CacheGeometry &geometry() const { return geom; }

    bool operator==(const ErrorPlane &other) const
    {
        return geom == other.geom && list == other.list;
    }

  private:
    CacheGeometry geom;
    std::vector<LinePoint> list; // Sorted.
    // SoA mirror of list, same order (see errorSets/errorWays).
    std::vector<std::uint32_t> soaSets;
    std::vector<std::uint32_t> soaWays;
    util::BitVec bitmap;
};

/** Multi-voltage error map. */
class ErrorMap
{
  public:
    explicit ErrorMap(const CacheGeometry &geometry);

    const CacheGeometry &geometry() const { return geom; }

    /** Get (or create) the plane at a voltage level. */
    ErrorPlane &plane(VddMv level);

    /** Read-only plane access; throws if the level is absent. */
    const ErrorPlane &plane(VddMv level) const;

    bool hasPlane(VddMv level) const { return planes.count(level) > 0; }

    /** All recorded voltage levels, ascending. */
    std::vector<VddMv> levels() const;

    /** Record a whole sweep result at one voltage. */
    void addSweep(VddMv level, const std::vector<LinePoint> &lines);

    /** Total errors across all planes. */
    std::size_t totalErrors() const;

    bool operator==(const ErrorMap &other) const
    {
        return geom == other.geom && planes == other.planes;
    }

  private:
    CacheGeometry geom;
    std::map<VddMv, ErrorPlane> planes;
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
