/**
 * @file
 * Nearest-error search on the (set, way) plane.
 *
 * Two implementations with identical distance semantics:
 *
 *  - nearestErrorBrute: scans the plane's error list; the test oracle
 *    every width of the production kernel (core/nearest_scan.hpp,
 *    distances only) is held to.
 *  - spiralSearch: the client-side procedure of Sec 5.4 -- explore the
 *    Von Neumann neighborhood of the challenge point outward and
 *    clockwise, range r = 0, 1, 2, ..., testing each candidate cell
 *    with a caller-provided predicate (on hardware, a targeted
 *    self-test) until a cell reports an error.
 *
 * The ring enumerator exploits the plane's extreme aspect ratio (tens
 * of thousands of sets, a handful of ways): instead of walking all 4r
 * ring cells it emits only the <= 2*ways in-bounds ones, ordered along
 * the clockwise perimeter starting due "north" (+way).
 */

#ifndef AUTH_CORE_NEAREST_HPP
#define AUTH_CORE_NEAREST_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/error_map.hpp"
#include "sim/geometry.hpp"

namespace authenticache::core {

/**
 * Result of a nearest-error query.
 *
 * cellsExamined accounting -- the unified definition both
 * implementations follow (so the Fig 13/14 runtime benches compare
 * like with like): it counts each candidate cell whose error status
 * or distance was actually evaluated, *including* the successful one.
 * Concretely:
 *  - nearestErrorBrute: every error point on the plane (each is
 *    distance-compared exactly once);
 *  - spiralSearch: every cell probed, the terminating hit included.
 * The counts are comparable *units* (cells evaluated), not equal
 * numbers -- each algorithm examines a different candidate set.
 */
struct NearestResult
{
    bool found = false;
    std::uint64_t distance = 0;   ///< Manhattan distance to the hit.
    LinePoint at{};               ///< Coordinates of the hit.
    std::uint64_t cellsExamined = 0;
};

/** Exact nearest error by scanning the plane's error list. */
NearestResult nearestErrorBrute(const ErrorPlane &plane,
                                const LinePoint &from);

/**
 * In-bounds cells at Manhattan radius @p r from @p center, ordered
 * clockwise along the ring perimeter starting north. r = 0 yields the
 * center itself.
 */
std::vector<LinePoint> ringCells(const CacheGeometry &geom,
                                 const LinePoint &center,
                                 std::uint64_t r);

/**
 * Outward clockwise search. The predicate is invoked once per cell in
 * ring order and should return true when the cell reports an error;
 * the first hit terminates the search.
 *
 * The returned distance always matches the map-side searches on an
 * equal error set (rings enumerate cells in exact distance order).
 * The returned *coordinate* follows the client's clockwise-first tie
 * rule of Sec 5.4, which can differ from the map-side lexicographic
 * rule when several errors tie; tests/test_nearest_scan.cpp pins
 * both behaviors.
 *
 * @param geom Plane bounds.
 * @param center Challenge point.
 * @param max_radius Give-up radius (inclusive).
 * @param probe Cell test; typically a targeted self-test.
 */
NearestResult spiralSearch(
    const CacheGeometry &geom, const LinePoint &center,
    std::uint64_t max_radius,
    const std::function<bool(const LinePoint &)> &probe);

/** Largest Manhattan radius needed to cover the whole plane. */
std::uint64_t maxSearchRadius(const CacheGeometry &geom);

} // namespace authenticache::core

#endif // AUTH_CORE_NEAREST_HPP
