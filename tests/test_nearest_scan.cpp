/**
 * @file
 * Differential property fuzz for the nearest-error paths: the
 * query-major kernel (nearestDistancesSoA) at every supported SIMD
 * width against the nearestErrorBrute oracle, on randomized planes
 * and on the degenerate geometries (empty plane, single error,
 * one-way plane, everything in one row, equal-distance ties), and
 * core::evaluate against Eq 8 over brute distances.
 *
 * Also pins the spiralSearch contract of nearest.hpp: distances
 * always agree with the map-side searches; the coordinate follows
 * the client's clockwise-first tie rule, so it is only asserted when
 * the nearest error is unique.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/challenge.hpp"
#include "core/nearest.hpp"
#include "core/nearest_scan.hpp"
#include "core/remap.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"
#include "mc/mapgen.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace crypto = authenticache::crypto;
namespace mc = authenticache::mc;
namespace util = authenticache::util;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(64 * 1024); // 128 sets x 8 ways.

sim::LinePoint
randomPoint(const sim::CacheGeometry &geom, Rng &rng)
{
    return geom.pointOf(rng.nextBelow(geom.lines()));
}

/** @p count random points of @p geom plus its four corners. */
std::vector<sim::LinePoint>
randomQueries(const sim::CacheGeometry &geom, int count, Rng &rng)
{
    std::vector<sim::LinePoint> queries;
    for (int q = 0; q < count; ++q)
        queries.push_back(randomPoint(geom, rng));
    const std::uint32_t last_set = geom.sets() - 1;
    const std::uint32_t last_way = geom.ways() - 1;
    for (sim::LinePoint corner : {sim::LinePoint{0, 0}, {last_set, 0},
                                  {0, last_way}, {last_set, last_way}})
        queries.push_back(corner);
    return queries;
}

/** The kernel's distances for @p queries at @p level. */
std::vector<std::uint32_t>
kernelDistances(const core::ErrorPlane &plane,
                const std::vector<sim::LinePoint> &queries,
                util::SimdLevel level)
{
    std::vector<std::uint32_t> qs, qw;
    for (const auto &q : queries) {
        qs.push_back(q.set);
        qw.push_back(q.way);
    }
    std::vector<std::uint32_t> out(queries.size(), 0xDEADBEEFu);
    core::nearestDistancesLines(plane.errorLines(),
                                plane.geometry().ways(), qs.data(),
                                qw.data(), queries.size(), out.data(),
                                level);
    return out;
}

/**
 * Run the kernel for @p queries at every supported width and check
 * each distance against nearestErrorBrute (UINT32_MAX when the plane
 * is empty).
 */
void
expectKernelMatchesBrute(const core::ErrorPlane &plane,
                         const std::vector<sim::LinePoint> &queries)
{
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        const auto out = kernelDistances(plane, queries, level);
        for (std::size_t j = 0; j < queries.size(); ++j) {
            const auto brute = core::nearestErrorBrute(plane, queries[j]);
            const std::uint64_t want =
                brute.found ? brute.distance : 0xFFFFFFFFu;
            EXPECT_EQ(out[j], want)
                << "@" << util::simdLevelName(level) << " n="
                << plane.errorCount() << " m=" << queries.size()
                << " query " << j << " at (" << queries[j].set << ","
                << queries[j].way << ")";
        }
    }
}

} // namespace

TEST(NearestScan, EmptyPlane)
{
    core::ErrorPlane plane(kGeom);
    auto r = core::nearestErrorBrute(plane, {5, 3});
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.cellsExamined, 0u);
    Rng rng(0xE0);
    expectKernelMatchesBrute(plane, randomQueries(kGeom, 5, rng));
}

TEST(NearestScan, SingleError)
{
    core::ErrorPlane plane(kGeom);
    plane.add({100, 2});
    expectKernelMatchesBrute(plane, {{100, 2}, {0, 0}, {127, 7},
                                     {100, 0}, {0, 2}});
}

TEST(NearestScan, ForcedEqualDistanceTies)
{
    // A diamond of errors all at distance 3 from (50, 4): the brute
    // oracle's tie rule picks the lexicographically smallest, (47, 4);
    // the kernel reports the distance alone at every width.
    core::ErrorPlane plane(kGeom);
    plane.add({47, 4});
    plane.add({53, 4});
    plane.add({50, 1});
    plane.add({50, 7});
    plane.add({48, 2});
    plane.add({52, 6});
    const sim::LinePoint q{50, 4};
    auto r = core::nearestErrorBrute(plane, q);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.distance, 3u);
    EXPECT_EQ(r.at, (sim::LinePoint{47, 4}));
    expectKernelMatchesBrute(plane, {q});
}

TEST(NearestScan, OneWayGeometry)
{
    // ways = 1: the kernels' way-delta arithmetic with all-equal ways.
    const sim::CacheGeometry geom(8 * 1024, 64, 1);
    Rng rng(0x1A1);
    for (std::size_t errors : {1u, 2u, 9u, 40u}) {
        auto plane = mc::randomPlane(geom, errors, rng);
        expectKernelMatchesBrute(plane, randomQueries(geom, 60, rng));
    }
}

TEST(NearestScan, SingleRowPlane)
{
    // Every error in one way row: all other rows are empty.
    core::ErrorPlane plane(kGeom);
    for (std::uint32_t set = 3; set < 120; set += 7)
        plane.add({set, 5});
    Rng rng(0x5107);
    expectKernelMatchesBrute(plane, randomQueries(kGeom, 100, rng));
}

TEST(NearestScan, DifferentialFuzzRandomPlanes)
{
    Rng rng(0xF022);
    // Error counts straddle the SIMD lane widths (1..8 cover every
    // partial vector; the large counts exercise long streams).
    for (std::size_t errors :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 60u, 333u,
          1000u}) {
        auto plane = mc::randomPlane(kGeom, errors, rng);
        expectKernelMatchesBrute(plane, randomQueries(kGeom, 40, rng));
    }
}

TEST(NearestScan, SpiralDistanceAgreesWithMapSearches)
{
    // The client-side spiral probes cells in exact distance order, so
    // its distance always matches brute and the kernel on an equal
    // error set; its coordinate follows the clockwise-first tie rule
    // and is only pinned when the nearest error is unique
    // (nearest.hpp).
    Rng rng(0x5B1A);
    const std::uint64_t max_r = core::maxSearchRadius(kGeom);
    for (std::size_t errors : {1u, 5u, 80u}) {
        auto plane = mc::randomPlane(kGeom, errors, rng);
        std::vector<sim::LinePoint> queries;
        for (int q = 0; q < 30; ++q)
            queries.push_back(randomPoint(kGeom, rng));
        std::vector<std::uint64_t> spiral_d;
        for (const auto &from : queries) {
            auto brute = core::nearestErrorBrute(plane, from);
            auto spiral = core::spiralSearch(
                kGeom, from, max_r,
                [&](const sim::LinePoint &p) {
                    return plane.contains(p);
                });
            ASSERT_EQ(spiral.found, brute.found);
            ASSERT_TRUE(spiral.found);
            EXPECT_EQ(spiral.distance, brute.distance);
            spiral_d.push_back(spiral.distance);

            // Unique nearest error => identical coordinate too.
            std::size_t at_min = 0;
            for (const auto &e : plane.errors()) {
                if (sim::manhattan(e, from) == brute.distance)
                    ++at_min;
            }
            if (at_min == 1) {
                EXPECT_EQ(spiral.at, brute.at);
            }
        }
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            const auto d = kernelDistances(plane, queries, level);
            for (std::size_t j = 0; j < queries.size(); ++j) {
                EXPECT_EQ(spiral_d[j], d[j])
                    << "@" << util::simdLevelName(level);
            }
        }
    }
}

TEST(NearestScan, CellsExaminedUnifiedAccounting)
{
    // nearest.hpp's unified definition: the brute scan examines every
    // error point exactly once; the spiral examines every cell of the
    // rings inside the hit's distance, then the hit's ring up to and
    // including the hit.
    Rng rng(0xCE11);
    auto plane = mc::randomPlane(kGeom, 300, rng);
    const std::uint64_t max_r = core::maxSearchRadius(kGeom);
    for (int q = 0; q < 50; ++q) {
        auto from = randomPoint(kGeom, rng);
        auto brute = core::nearestErrorBrute(plane, from);
        EXPECT_EQ(brute.cellsExamined, plane.errorCount());

        auto spiral = core::spiralSearch(
            kGeom, from, max_r,
            [&](const sim::LinePoint &p) { return plane.contains(p); });
        ASSERT_TRUE(spiral.found);
        std::uint64_t want = 0;
        for (std::uint64_t r = 0; r < spiral.distance; ++r)
            want += core::ringCells(kGeom, from, r).size();
        const auto ring = core::ringCells(kGeom, from, spiral.distance);
        want += std::find(ring.begin(), ring.end(), spiral.at) -
                ring.begin() + 1;
        EXPECT_EQ(spiral.cellsExamined, want);
    }
}

// ---------------------------------------------------------------
// Kernel edge cases: every query tail, ties, corners, an empty
// plane, and the coordinate-range fallback.
// ---------------------------------------------------------------

TEST(NearestScan, DistancesKernelEveryTailLength)
{
    // M = 1..17 hits every query tail at 4 and 8 lanes (and at the
    // two-vector blocks); n spans single errors, partial and full
    // vectors, and a dense plane.
    Rng rng(0xD157A);
    for (std::size_t errors : {1u, 7u, 8u, 9u, 40u, 500u}) {
        auto plane = mc::randomPlane(kGeom, errors, rng);
        for (std::size_t m = 1; m <= 17; ++m) {
            std::vector<sim::LinePoint> queries;
            for (std::size_t j = 0; j < m; ++j) {
                // Every third query sits on an error (distance 0).
                queries.push_back(
                    j % 3 == 0
                        ? plane.errors()[rng.nextBelow(errors)]
                        : randomPoint(kGeom, rng));
            }
            expectKernelMatchesBrute(plane, queries);
        }
    }
}

TEST(NearestScan, DistancesKernelTiesAndCorners)
{
    // The diamond of ForcedEqualDistanceTies: six errors at distance
    // 3 from (50, 4). Only the distance is reported, so any of them
    // may be the one that achieved it.
    core::ErrorPlane plane(kGeom);
    for (sim::LinePoint e : {sim::LinePoint{47, 4}, {53, 4}, {50, 1},
                             {50, 7}, {48, 2}, {52, 6}})
        plane.add(e);
    const std::uint32_t last_set = kGeom.sets() - 1;
    const std::uint32_t last_way = kGeom.ways() - 1;
    expectKernelMatchesBrute(
        plane, {{50, 4}, {0, 0}, {last_set, last_way}, {0, last_way},
                {last_set, 0}, {47, 4}, {50, 4}, {51, 5}, {49, 3}});

    // Errors in the corners, queried from the corners and the middle.
    core::ErrorPlane corners(kGeom);
    for (sim::LinePoint e : {sim::LinePoint{0, 0}, {0, last_way},
                             {last_set, 0}, {last_set, last_way}})
        corners.add(e);
    expectKernelMatchesBrute(
        corners, {{0, 0}, {last_set, last_way}, {64, 4}, {63, 3},
                  {1, 1}, {last_set - 1, last_way - 1}});
}

TEST(NearestScan, DistancesKernelEmptyPlane)
{
    core::ErrorPlane plane(kGeom);
    expectKernelMatchesBrute(plane, {{0, 0}, {5, 3}, {127, 7}});

    // Through the evaluator: an empty plane is infinitely far.
    core::ErrorMap map(kGeom);
    map.plane(700);
    EXPECT_EQ(core::pointDistance(map, {{5, 3}, 700}),
              core::kInfiniteDistance);
    EXPECT_EQ(core::pointDistance(map, {{5, 3}, 710}),
              core::kInfiniteDistance);
}

TEST(NearestScan, DistancesKernelCoordLimitFallsBackToScalar)
{
    // Coordinates at or above 2^29 take the scalar body at every
    // requested width; the result still matches a 64-bit brute
    // reference, for a wide error stream and for a wide query.
    const std::uint32_t limit = 1u << 29;
    // Differences up to 3 * 2^30 would overflow a signed lane.
    const std::vector<std::uint32_t> sets = {
        3, 17, limit - 1, limit, limit + 9, 1u << 30, 3u << 30};
    const std::vector<std::uint32_t> ways = {1, 6, 2, 0, 7, 4, 5};
    const std::vector<std::uint32_t> qs = {0, limit, 20, 1u << 30,
                                           limit - 2, 3u << 30};
    const std::vector<std::uint32_t> qw = {0, 3, 5, 4, 1, 2};

    for (std::size_t n : {std::size_t{2}, sets.size()}) {
        // n == 2: a small stream with wide queries.
        std::vector<std::uint32_t> out(qs.size());
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            core::nearestDistancesSoA(sets.data(), ways.data(), n,
                                      qs.data(), qw.data(), qs.size(),
                                      out.data(), level);
            for (std::size_t j = 0; j < qs.size(); ++j) {
                std::uint64_t want = ~0ull;
                for (std::size_t i = 0; i < n; ++i) {
                    std::uint64_t dx = sets[i] > qs[j] ? sets[i] - qs[j]
                                                       : qs[j] - sets[i];
                    std::uint64_t dy = ways[i] > qw[j] ? ways[i] - qw[j]
                                                       : qw[j] - ways[i];
                    want = std::min(want, dx + dy);
                }
                EXPECT_EQ(out[j], want)
                    << "@" << util::simdLevelName(level) << " n=" << n
                    << " query " << j;
            }
        }
    }
}

TEST(NearestScan, DistancesKernelUnsortedWideStreamFallsBackToScalar)
{
    // The wide coordinates (>= 2^29) are not last, in sets or in
    // ways, so a bound read off the end of a sorted stream would miss
    // them and pick a vector body. There the set 2^32 - 10 reads as
    // -10 in a signed lane and looks nearer than every real error.
    // Every width must give the scalar distances (no scalar sum
    // wraps: each wide error pairs with small other coordinates).
    const std::vector<std::uint32_t> sets = {90, 0xFFFFFFF6u, 150, 200,
                                             75};
    const std::vector<std::uint32_t> ways = {3, 1, 0xFFFFFF00u, 0, 6};
    std::vector<std::uint32_t> qs, qw;
    for (std::uint32_t q = 0; q < 19; ++q) {
        qs.push_back(q * 7 % 100);
        qw.push_back(q % 8);
    }
    std::vector<std::uint32_t> want(qs.size());
    core::nearestDistancesSoA(sets.data(), ways.data(), sets.size(),
                              qs.data(), qw.data(), qs.size(), want.data(),
                              util::SimdLevel::Scalar);
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::vector<std::uint32_t> out(qs.size());
        core::nearestDistancesSoA(sets.data(), ways.data(), sets.size(),
                                  qs.data(), qw.data(), qs.size(),
                                  out.data(), level);
        EXPECT_EQ(out, want) << "@" << util::simdLevelName(level);
    }
}

namespace {

/** Eq 8 over nearestErrorBrute distances on @p map. */
core::Response
bruteResponse(const core::ErrorMap &map, const core::Challenge &challenge)
{
    auto distance = [&](const core::ChallengePoint &p) {
        if (!map.hasPlane(p.vddMv))
            return core::kInfiniteDistance;
        auto r = core::nearestErrorBrute(map.plane(p.vddMv), p.line);
        return r.found ? r.distance : core::kInfiniteDistance;
    };
    core::Response response(challenge.size());
    for (std::size_t i = 0; i < challenge.size(); ++i) {
        response.set(i, core::responseBitFromDistances(
                            distance(challenge.bits[i].a),
                            distance(challenge.bits[i].b)));
    }
    return response;
}

} // namespace

TEST(NearestScan, EvaluateMatchesBruteAtEveryWidth)
{
    // core::evaluate at each width against Eq 8 over brute distances,
    // on single-level challenges and on mixed-level ones touching a
    // plane with errors, an empty plane (720) and a missing one (730).
    Rng rng(0xE7A1);
    core::ErrorMap map = mc::randomErrorMap(kGeom, 700, 40, rng);
    const auto sparse = mc::randomPlane(kGeom, 9, rng);
    for (const auto &e : sparse.errors())
        map.plane(710).add(e);
    map.plane(720);
    const std::vector<core::VddMv> levels = {700, 710, 720, 730};

    for (int round = 0; round < 24; ++round) {
        const std::size_t bits = 1 + rng.nextBelow(130);
        core::Challenge challenge =
            core::randomChallenge(kGeom, 700, bits, rng);
        if (round % 2) {
            for (auto &bit : challenge.bits) {
                bit.a.vddMv = levels[rng.nextBelow(levels.size())];
                bit.b.vddMv = levels[rng.nextBelow(levels.size())];
            }
        }
        const core::Response want = bruteResponse(map, challenge);
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            EXPECT_EQ(core::evaluate(map, challenge, level), want)
                << "@" << util::simdLevelName(level) << " round "
                << round;
        }
        EXPECT_EQ(core::evaluate(map, challenge), want);
    }
}

namespace {

/**
 * The line-index stream's edges: a way count that is not a power of
 * two (the split divides), and the full 2^32-line domain, whose last
 * line index is 0xFFFFFFFF and whose Feistel round table is two bytes
 * per entry.
 */
struct LineStreamCase
{
    const char *name;
    sim::CacheGeometry geom;
};

void
PrintTo(const LineStreamCase &c, std::ostream *os)
{
    *os << c.geom.describe();
}

} // namespace

class NearestScanLineStream : public ::testing::TestWithParam<LineStreamCase>
{
};

TEST_P(NearestScanLineStream, EvaluateMatchesBrute)
{
    // Physical planes through evaluate at every width, and the keyed
    // logical view through evaluate over LogicalPlane, each against
    // Eq 8 over brute distances on the same (mapped) errors.
    const sim::CacheGeometry &geom = GetParam().geom;
    Rng rng(geom.lines() ^ geom.ways());
    core::ErrorMap map = mc::randomErrorMap(geom, 700, 40, rng);
    map.plane(700).add(geom.pointOf(geom.lines() - 1));
    map.plane(700).add({0, 0});
    const crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash("line-stream-" + geom.describe()));
    const core::LogicalPlane view(key, map, 700);
    const core::LogicalPlane *views[] = {&view};
    const core::ErrorMap logical =
        core::LogicalRemap(key, geom).mapErrorMap(map);
    EXPECT_TRUE(std::ranges::equal(view.errorLines(),
                                   logical.plane(700).errorLines()));

    for (int round = 0; round < 6; ++round) {
        const std::size_t bits = 1 + rng.nextBelow(130);
        core::Challenge challenge =
            core::randomChallenge(geom, 700, bits, rng);
        // Both corner lines, each an error of the physical plane.
        challenge.bits[0].a.line = {0, 0};
        challenge.bits[0].b.line = geom.pointOf(geom.lines() - 1);
        const core::Response want = bruteResponse(map, challenge);
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            EXPECT_EQ(core::evaluate(map, challenge, level), want)
                << "@" << util::simdLevelName(level) << " round "
                << round;
        }
        EXPECT_EQ(core::evaluate(views, challenge),
                  bruteResponse(logical, challenge))
            << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NearestScanLineStream,
    ::testing::Values(
        LineStreamCase{"TwelveWays",
                       sim::CacheGeometry(256 * 12 * 64, 64, 12)},
        LineStreamCase{"TwoToThe32Lines",
                       sim::CacheGeometry(std::uint64_t{1} << 38, 64, 16)}),
    [](const ::testing::TestParamInfo<LineStreamCase> &param) {
        return std::string(param.param.name);
    });
