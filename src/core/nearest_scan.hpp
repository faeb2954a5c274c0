/**
 * @file
 * Vectorized Manhattan-distance candidate scans.
 *
 * nearestErrorScan is the SIMD counterpart of nearestErrorBrute: a
 * linear scan of a plane's error points in structure-of-arrays form
 * (ErrorPlane::errorSets / errorWays), processing 4 (SSE2) or 8
 * (AVX2) candidates per step. Results are bit-identical to the brute
 * reference at every width, including the tie rule (among equidistant
 * errors the lexicographically smallest (set, way) wins) and the
 * cellsExamined accounting (every error point is examined exactly
 * once) -- the differential fuzz in tests/test_nearest_scan.cpp pits
 * all widths against each other on randomized planes.
 *
 * Why the tie rule holds at any width: the SoA stream is in sorted
 * (set, way) order, so "earliest index achieving the minimum
 * distance" and "lexicographically smallest coordinate at the
 * minimum distance" are the same element. Each SIMD lane keeps the
 * earliest index of its own subsequence (strict-less updates), and
 * the cross-lane reduction breaks distance ties toward the smaller
 * index, which recovers the global earliest index.
 *
 * manhattanBatch fills a distance array for an arbitrary (unsorted)
 * candidate list -- the kernel behind ErrorIndex::nearestBatch's
 * per-row flank candidates, where the tie-break must compare
 * coordinates explicitly because gather order is per-way, not
 * lexicographic.
 *
 * nearestDistancesSoA is the query-major kernel behind
 * core::evaluate: many query points against one plane, queries in
 * the lanes (8 per AVX2 vector, 4 per SSE2 vector), each error point
 * broadcast in turn, and a running unsigned minimum per lane. It
 * returns distances only -- no argmin and no cross-lane reduction --
 * because a response bit (Eq 8) reads nothing but the two distances,
 * so no tie rule can change it.
 *
 * Coordinate-range contract: all kernels require set + way sums
 * below 2^30 (any realistic cache geometry is orders of magnitude
 * smaller); wider planes fall back to the scalar path.
 */

#ifndef AUTH_CORE_NEAREST_SCAN_HPP
#define AUTH_CORE_NEAREST_SCAN_HPP

#include <cstddef>
#include <cstdint>

#include "core/error_map.hpp"
#include "core/nearest.hpp"
#include "util/simd.hpp"

namespace authenticache::core {

/**
 * Nearest error over a raw SoA candidate stream in sorted
 * (set, way) order. @p level is clamped to the CPU's capability.
 * n == 0 yields found == false.
 */
NearestResult nearestScanSoA(const std::uint32_t *sets,
                             const std::uint32_t *ways, std::size_t n,
                             const LinePoint &from,
                             util::SimdLevel level);

/**
 * SIMD nearest-error scan over a plane; identical result to
 * nearestErrorBrute(plane, from) at every width.
 */
NearestResult nearestErrorScan(const ErrorPlane &plane,
                               const LinePoint &from,
                               util::SimdLevel level);

/** Same, dispatched at the process-wide util::simdLevel(). */
NearestResult nearestErrorScan(const ErrorPlane &plane,
                               const LinePoint &from);

/**
 * Query-major nearest-error distances: for each j < m,
 * out_d[j] = min over i < n of |sets[i] - qsets[j]| +
 * |ways[i] - qways[j]|. The error stream follows nearestScanSoA's
 * contract (sorted by (set, way), so sets[n-1] bounds the sets); the
 * queries may come in any order. n == 0 writes UINT32_MAX ("no
 * error") to every output. @p level is clamped to the CPU's
 * capability, and to scalar when any coordinate reaches 2^29.
 */
void nearestDistancesSoA(const std::uint32_t *sets,
                         const std::uint32_t *ways, std::size_t n,
                         const std::uint32_t *qsets,
                         const std::uint32_t *qways, std::size_t m,
                         std::uint32_t *out_d, util::SimdLevel level);

/**
 * Fill @p out_d[i] = |sets[i] - from.set| + |ways[i] - from.way| for
 * an arbitrary candidate list (no ordering assumption).
 */
void manhattanBatch(const std::uint32_t *sets,
                    const std::uint32_t *ways, std::size_t n,
                    const LinePoint &from, std::uint32_t *out_d,
                    util::SimdLevel level);

} // namespace authenticache::core

#endif // AUTH_CORE_NEAREST_SCAN_HPP
