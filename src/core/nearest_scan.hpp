/**
 * @file
 * The query-major nearest-error distance kernel: the one
 * nearest-distance path behind core::evaluate and core::pointDistance
 * (and through evaluate, the model attack's ground truth) and the
 * Monte Carlo estimators (src/mc).
 *
 * nearestDistancesSoA answers many query points against one plane's
 * errors in structure-of-arrays form (a set array and a way array):
 * queries in the lanes (8 per AVX2 vector, 4 per SSE2
 * vector, two vectors per pass), each error point broadcast in turn,
 * and a running unsigned minimum per lane. It returns distances only
 * -- no argmin and no cross-lane reduction -- because a response bit
 * (Eq 8) reads nothing but the two distances, so no tie rule can
 * change it. Results are identical at every width; the tests hold
 * every width to nearestErrorBrute.
 *
 * Planes store their errors as one stream of line indices
 * (ErrorPlane::errorLines, LogicalPlane::errorLines);
 * nearestDistancesLines splits that stream into the two arrays once
 * per call and runs the kernel.
 *
 * Callers batch: one call per plane over every query they have for
 * it. The vector bodies only pay off across a block of queries; one
 * query per call runs at scalar speed (DESIGN.md §5c).
 *
 * Coordinate-range contract: the vector bodies require coordinates
 * below 2^29 (any realistic cache geometry is orders of magnitude
 * smaller); wider inputs fall back to the scalar body.
 */

#ifndef AUTH_CORE_NEAREST_SCAN_HPP
#define AUTH_CORE_NEAREST_SCAN_HPP

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/simd.hpp"

namespace authenticache::core {

/**
 * Query-major nearest-error distances: for each j < m,
 * out_d[j] = min over i < n of |sets[i] - qsets[j]| +
 * |ways[i] - qways[j]|. Neither the error stream nor the queries need
 * any order. n == 0 writes UINT32_MAX ("no error") to every output.
 * @p level is clamped to the CPU's capability, and to scalar when any
 * coordinate, of an error or a query, reaches 2^29.
 */
void nearestDistancesSoA(const std::uint32_t *sets,
                         const std::uint32_t *ways, std::size_t n,
                         const std::uint32_t *qsets,
                         const std::uint32_t *qways, std::size_t m,
                         std::uint32_t *out_d, util::SimdLevel level);

/**
 * nearestDistancesSoA against an error stream of line indices
 * (set * @p ways + way, any order), as ErrorPlane::errorLines and
 * LogicalPlane::errorLines hold it: the stream is split into set and
 * way scratch once, then the kernel answers all @p m queries.
 */
void nearestDistancesLines(std::span<const std::uint32_t> lines,
                           std::uint32_t ways,
                           const std::uint32_t *qsets,
                           const std::uint32_t *qways, std::size_t m,
                           std::uint32_t *out_d, util::SimdLevel level);

} // namespace authenticache::core

#endif // AUTH_CORE_NEAREST_SCAN_HPP
