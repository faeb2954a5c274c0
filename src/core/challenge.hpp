/**
 * @file
 * Challenge-response types and the ideal (map-side) evaluation.
 *
 * A challenge is a sequence of coordinate pairs; each pair contributes
 * one response bit per the paper's Eq 7-8:
 *
 *     Challenge(A, B) = (P1(x1, y1, V), P2(x2, y2, V'))
 *     Response bit    = 0 if dist(A, e1) <= dist(B, e2) else 1
 *
 * where e1/e2 are the respective nearest errors in the error plane of
 * the point's voltage. Ties resolve to 0, the slight bias the paper
 * measures in Sec 6.4. A point whose plane holds no error at all has
 * infinite distance.
 */

#ifndef AUTH_CORE_CHALLENGE_HPP
#define AUTH_CORE_CHALLENGE_HPP

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/error_map.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace authenticache::core {

/** One endpoint of a challenge bit: a cache coordinate at a voltage. */
struct ChallengePoint
{
    LinePoint line;
    VddMv vddMv = 0;

    bool operator==(const ChallengePoint &) const = default;
    auto operator<=>(const ChallengePoint &) const = default;
};

/** One challenge bit: the pair (A, B). */
struct ChallengeBit
{
    ChallengePoint a;
    ChallengePoint b;

    bool operator==(const ChallengeBit &) const = default;
};

/** A complete challenge: typically 64 to 512 bits. */
struct Challenge
{
    std::vector<ChallengeBit> bits;

    std::size_t size() const { return bits.size(); }
};

/** Response bits, index-aligned with the challenge bits. */
using Response = util::BitVec;

/** Distance value used during evaluation; infinite when no error. */
constexpr std::uint64_t kInfiniteDistance =
    std::numeric_limits<std::uint64_t>::max();

/** Nearest-error distance of one challenge point on a map. */
std::uint64_t pointDistance(const ErrorMap &map,
                            const ChallengePoint &point);

/** Evaluate one bit per Eq 8 from the two distances. */
inline bool
responseBitFromDistances(std::uint64_t dist_a, std::uint64_t dist_b)
{
    return dist_a > dist_b;
}

/**
 * Ideal evaluation of a whole challenge against an error map. The
 * 2*bits endpoints are grouped by voltage level and each plane
 * answers its group in one query-major kernel call
 * (nearestDistancesSoA). Only distances are computed: Eq 8 reads
 * nothing else, so the result is the same at every @p level.
 */
Response evaluate(const ErrorMap &map, const Challenge &challenge,
                  util::SimdLevel level);

/** Same, dispatched at the process-wide util::simdLevel(). */
Response evaluate(const ErrorMap &map, const Challenge &challenge);

class LogicalPlane;

/**
 * Same, against per-level logical views (core/remap.hpp), dispatched
 * at util::simdLevel(): each endpoint is answered by the view of its
 * level. A level with no view in @p planes, or whose view holds no
 * error, is infinitely far, as a missing or empty ErrorMap plane is.
 * Both overloads run one grouping and kernel loop.
 */
Response evaluate(std::span<const LogicalPlane *const> planes,
                  const Challenge &challenge);

/**
 * An empty type, kept only so that existing callers of the
 * ChallengeGenerator overloads that take a scratch still compile.
 * Evaluation needs no caller-held scratch: core::evaluate stages its
 * queries in one local buffer per call.
 */
struct EvalScratch
{
};

/**
 * Draw a random challenge whose points are distinct cache lines at one
 * voltage level. Pairs are disjoint within the challenge (2*bits
 * distinct lines), matching the paper's "as many pairs of randomly
 * chosen cache lines".
 */
Challenge randomChallenge(const CacheGeometry &geom, VddMv level,
                          std::size_t bits, util::Rng &rng);

} // namespace authenticache::core

#endif // AUTH_CORE_CHALLENGE_HPP
