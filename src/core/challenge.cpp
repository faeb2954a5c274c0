#include "core/challenge.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "core/nearest_scan.hpp"
#include "core/remap.hpp"

namespace authenticache::core {

namespace {

/**
 * One level's errors as line indices, and the ways that split them
 * into (set, way); none: empty.
 */
struct ErrorStream
{
    std::span<const std::uint32_t> lines;
    std::uint32_t ways = 0;
};

/** The plane at @p level; empty when the map has none there. */
ErrorStream
streamAt(const ErrorMap &map, VddMv level)
{
    if (!map.hasPlane(level))
        return {};
    const ErrorPlane &plane = map.plane(level);
    return {plane.errorLines(), plane.geometry().ways()};
}

/** Endpoint @p i of a challenge: bit i/2's a (even) or b (odd). */
const ChallengePoint &
endpointAt(const Challenge &challenge, std::size_t i)
{
    const ChallengeBit &bit = challenge.bits[i / 2];
    return (i % 2 == 0) ? bit.a : bit.b;
}

/**
 * Eq 8 over a whole challenge, each level's errors given by
 * @p errors_at(level). The 2*bits endpoints are grouped by level and
 * each level answers its group in one kernel call.
 */
template <typename ErrorsAt>
Response
evaluateGrouped(const Challenge &challenge, ErrorsAt errors_at,
                util::SimdLevel level)
{
    const std::size_t bits = challenge.size();
    const std::size_t npts = bits * 2;

    // One buffer, five npts-long arrays: each endpoint's distance,
    // then per-plane staging (query sets, query ways, the kernel's
    // distances, each query's endpoint index). Distances stay in the
    // kernel's domain, where UINT32_MAX means "no error": a point
    // whose level has no plane, or an empty one, keeps it. No real
    // distance reaches it: that would take coordinates near 2^31.
    // Only the distances are initialised; staging is written first.
    const auto buf = std::make_unique_for_overwrite<std::uint32_t[]>(5 * npts);
    std::uint32_t *dist = buf.get();
    std::uint32_t *qsets = dist + npts;
    std::uint32_t *qways = qsets + npts;
    std::uint32_t *qdist = qways + npts;
    std::uint32_t *order = qdist + npts;
    std::fill(dist, qsets, std::numeric_limits<std::uint32_t>::max());

    // One kernel call per plane, levels taken in challenge order:
    // gather that level's endpoints, answer them all at once,
    // scatter the distances back. No endpoint before `first` is at
    // an unseen level, so each gather starts there, and the first
    // endpoint it skips is where the search for the next level
    // resumes (a single-level challenge makes one pass).
    std::vector<VddMv> done;
    std::size_t first = 0;
    while (first < npts) {
        const VddMv vdd = endpointAt(challenge, first).vddMv;
        ErrorStream errors;
        if (std::find(done.begin(), done.end(), vdd) == done.end()) {
            done.push_back(vdd);
            errors = errors_at(vdd);
        }
        if (errors.lines.empty()) {
            ++first;
            continue;
        }
        std::size_t m = 0;
        std::size_t next = npts;
        for (std::size_t i = first; i < npts; ++i) {
            const ChallengePoint &p = endpointAt(challenge, i);
            if (p.vddMv != vdd) {
                next = std::min(next, i);
                continue;
            }
            qsets[m] = p.line.set;
            qways[m] = p.line.way;
            order[m] = static_cast<std::uint32_t>(i);
            ++m;
        }
        nearestDistancesLines(errors.lines, errors.ways, qsets, qways, m,
                              qdist, level);
        for (std::size_t j = 0; j < m; ++j)
            dist[order[j]] = qdist[j];
        first = next;
    }

    std::vector<std::uint64_t> words((bits + 63) / 64, 0);
    for (std::size_t i = 0; i < bits; ++i) {
        const bool bit =
            responseBitFromDistances(dist[2 * i], dist[2 * i + 1]);
        words[i / 64] |= std::uint64_t{bit} << (i % 64);
    }
    return Response::fromWords(std::move(words), bits);
}

} // namespace

std::uint64_t
pointDistance(const ErrorMap &map, const ChallengePoint &point)
{
    const ErrorStream errors = streamAt(map, point.vddMv);
    if (errors.lines.empty())
        return kInfiniteDistance;
    std::uint32_t d = 0;
    nearestDistancesLines(errors.lines, errors.ways, &point.line.set,
                          &point.line.way, 1, &d, util::simdLevel());
    return d;
}

Response
evaluate(const ErrorMap &map, const Challenge &challenge,
         util::SimdLevel level)
{
    return evaluateGrouped(
        challenge, [&](VddMv vdd) { return streamAt(map, vdd); }, level);
}

Response
evaluate(const ErrorMap &map, const Challenge &challenge)
{
    return evaluate(map, challenge, util::simdLevel());
}

Response
evaluate(std::span<const LogicalPlane *const> planes,
         const Challenge &challenge)
{
    auto errors_at = [&](VddMv vdd) {
        for (const LogicalPlane *plane : planes) {
            if (plane->level() == vdd)
                return ErrorStream{plane->errorLines(), plane->ways()};
        }
        return ErrorStream{};
    };
    return evaluateGrouped(challenge, errors_at, util::simdLevel());
}

Challenge
randomChallenge(const CacheGeometry &geom, VddMv level,
                std::size_t bits, util::Rng &rng)
{
    Challenge challenge;
    challenge.bits.reserve(bits);
    auto lines = rng.sampleDistinct(geom.lines(), bits * 2);
    for (std::size_t i = 0; i < bits; ++i) {
        ChallengeBit bit;
        bit.a = ChallengePoint{geom.pointOf(lines[2 * i]), level};
        bit.b = ChallengePoint{geom.pointOf(lines[2 * i + 1]), level};
        challenge.bits.push_back(bit);
    }
    return challenge;
}

} // namespace authenticache::core
