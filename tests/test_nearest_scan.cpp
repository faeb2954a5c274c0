/**
 * @file
 * Differential property fuzz for the nearest-error implementations:
 * nearestErrorBrute (reference), ErrorIndex::nearest,
 * nearestErrorScan at every supported SIMD width, and
 * ErrorIndex::nearestBatch at every width -- all must agree on
 * found/distance/coordinate, including equal-distance ties, on
 * randomized planes and on the degenerate geometries (empty plane,
 * single error, one-way plane, everything in one row).
 *
 * Also pins the spiralSearch contract of nearest.hpp: distances
 * always agree with the map-side searches; the coordinate follows
 * the client's clockwise-first tie rule, so it is only asserted when
 * the nearest error is unique.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/challenge.hpp"
#include "core/error_index.hpp"
#include "core/nearest.hpp"
#include "core/nearest_scan.hpp"
#include "mc/mapgen.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace core = authenticache::core;
namespace sim = authenticache::sim;
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

/**
 * Assert every implementation returns the brute answer for one
 * query, at every SIMD width the host supports.
 */
void
expectAllAgree(const core::ErrorPlane &plane,
               const core::ErrorIndex &index,
               const sim::LinePoint &from)
{
    const auto brute = core::nearestErrorBrute(plane, from);

    const auto indexed = index.nearest(from);
    ASSERT_EQ(indexed.found, brute.found)
        << "index.nearest at (" << from.set << "," << from.way << ")";
    if (brute.found) {
        EXPECT_EQ(indexed.distance, brute.distance);
        EXPECT_EQ(indexed.at, brute.at);
    }

    core::NearestScratch scratch;
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        const auto scan = core::nearestErrorScan(plane, from, level);
        ASSERT_EQ(scan.found, brute.found)
            << "scan @" << util::simdLevelName(level) << " at ("
            << from.set << "," << from.way << ")";
        if (brute.found) {
            EXPECT_EQ(scan.distance, brute.distance)
                << "scan @" << util::simdLevelName(level);
            EXPECT_EQ(scan.at, brute.at)
                << "scan @" << util::simdLevelName(level);
        }
        // The scan examines every error point exactly once.
        EXPECT_EQ(scan.cellsExamined, plane.errorCount());

        core::NearestResult batched;
        index.nearestBatch({&from, 1}, {&batched, 1}, scratch, level);
        ASSERT_EQ(batched.found, brute.found)
            << "batch @" << util::simdLevelName(level);
        if (brute.found) {
            EXPECT_EQ(batched.distance, brute.distance)
                << "batch @" << util::simdLevelName(level);
            EXPECT_EQ(batched.at, brute.at)
                << "batch @" << util::simdLevelName(level);
        }
    }
}

} // namespace

TEST(NearestScan, EmptyPlane)
{
    core::ErrorPlane plane(kGeom);
    core::ErrorIndex index(plane);
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        auto r = core::nearestErrorScan(plane, {5, 3}, level);
        EXPECT_FALSE(r.found);
        EXPECT_EQ(r.cellsExamined, 0u);
    }
    expectAllAgree(plane, index, {0, 0});
    expectAllAgree(plane, index, {kGeom.sets() - 1, kGeom.ways() - 1});
}

TEST(NearestScan, SingleError)
{
    core::ErrorPlane plane(kGeom);
    plane.add({100, 2});
    core::ErrorIndex index(plane);
    for (auto from : {sim::LinePoint{100, 2}, sim::LinePoint{0, 0},
                      sim::LinePoint{127, 7}, sim::LinePoint{100, 0},
                      sim::LinePoint{0, 2}}) {
        expectAllAgree(plane, index, from);
    }
}

TEST(NearestScan, ForcedEqualDistanceTies)
{
    // A diamond of errors all at distance 3 from (50, 4): the
    // lexicographically smallest, (47, 4), must win at every width.
    core::ErrorPlane plane(kGeom);
    plane.add({47, 4});
    plane.add({53, 4});
    plane.add({50, 1});
    plane.add({50, 7});
    plane.add({48, 2});
    plane.add({52, 6});
    core::ErrorIndex index(plane);
    const sim::LinePoint q{50, 4};
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        auto r = core::nearestErrorScan(plane, q, level);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.distance, 3u);
        EXPECT_EQ(r.at, (sim::LinePoint{47, 4}))
            << "@" << util::simdLevelName(level);
    }
    expectAllAgree(plane, index, q);
}

TEST(NearestScan, OneWayGeometry)
{
    // ways = 1 exercises the single-row binary-search path and the
    // scan's way-delta arithmetic with all-equal ways.
    const sim::CacheGeometry geom(8 * 1024, 64, 1);
    Rng rng(0x1A1);
    for (std::size_t errors : {1u, 2u, 9u, 40u}) {
        auto plane = mc::randomPlane(geom, errors, rng);
        core::ErrorIndex index(plane);
        for (int q = 0; q < 60; ++q)
            expectAllAgree(plane, index, randomPoint(geom, rng));
        expectAllAgree(plane, index, {0, 0});
        expectAllAgree(plane, index, {geom.sets() - 1, 0});
    }
}

TEST(NearestScan, SingleRowPlane)
{
    // Every error in one way row: all other rows are empty, the
    // sparse-row skip path in ErrorIndex and lane-tail handling in
    // the kernels.
    core::ErrorPlane plane(kGeom);
    for (std::uint32_t set = 3; set < 120; set += 7)
        plane.add({set, 5});
    core::ErrorIndex index(plane);
    Rng rng(0x5107);
    for (int q = 0; q < 100; ++q)
        expectAllAgree(plane, index, randomPoint(kGeom, rng));
}

TEST(NearestScan, DifferentialFuzzRandomPlanes)
{
    Rng rng(0xF022);
    // Error counts straddle the SIMD lane widths (1..8 cover every
    // partial-vector tail; the large counts exercise full vectors).
    for (std::size_t errors :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 60u, 333u,
          1000u}) {
        auto plane = mc::randomPlane(kGeom, errors, rng);
        core::ErrorIndex index(plane);
        for (int q = 0; q < 40; ++q)
            expectAllAgree(plane, index, randomPoint(kGeom, rng));
        expectAllAgree(plane, index, {0, 0});
        expectAllAgree(plane, index, {kGeom.sets() - 1, 0});
        expectAllAgree(plane, index, {0, kGeom.ways() - 1});
        expectAllAgree(plane, index,
                       {kGeom.sets() - 1, kGeom.ways() - 1});
    }
}

TEST(NearestScan, BatchMatchesSequentialQueries)
{
    Rng rng(0xBA7C);
    auto plane = mc::randomPlane(kGeom, 200, rng);
    core::ErrorIndex index(plane);

    std::vector<sim::LinePoint> queries;
    for (int q = 0; q < 128; ++q)
        queries.push_back(randomPoint(kGeom, rng));

    core::NearestScratch scratch;
    std::vector<core::NearestResult> batched(queries.size());
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        index.nearestBatch(queries, batched, scratch, level);
        for (std::size_t i = 0; i < queries.size(); ++i) {
            auto one = index.nearest(queries[i]);
            ASSERT_EQ(batched[i].found, one.found);
            EXPECT_EQ(batched[i].distance, one.distance);
            EXPECT_EQ(batched[i].at, one.at);
        }
    }
    // Steady state: the second batch through the same scratch must
    // not grow the arena (no per-call heap traffic).
    index.nearestBatch(queries, batched, scratch);
    const std::size_t blocks = scratch.arena.blockCount();
    index.nearestBatch(queries, batched, scratch);
    EXPECT_EQ(scratch.arena.blockCount(), blocks);
    EXPECT_EQ(blocks, 1u);
}

TEST(NearestScan, ManhattanBatchAllWidths)
{
    Rng rng(0xD157);
    const std::size_t n = 203; // Odd size: every kernel tail runs.
    std::vector<std::uint32_t> sets(n), ways(n);
    for (std::size_t i = 0; i < n; ++i) {
        sets[i] = static_cast<std::uint32_t>(rng.nextBelow(100000));
        ways[i] = static_cast<std::uint32_t>(rng.nextBelow(64));
    }
    const sim::LinePoint from{51234, 17};

    std::vector<std::uint32_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t dx = sets[i] > from.set ? sets[i] - from.set
                                              : from.set - sets[i];
        std::uint32_t dy = ways[i] > from.way ? ways[i] - from.way
                                              : from.way - ways[i];
        expected[i] = dx + dy;
    }

    std::vector<std::uint32_t> out(n);
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::fill(out.begin(), out.end(), 0xFFFFFFFFu);
        core::manhattanBatch(sets.data(), ways.data(), n, from,
                             out.data(), level);
        EXPECT_EQ(out, expected)
            << "@" << util::simdLevelName(level);
    }
}

TEST(NearestScan, SpiralDistanceAgreesWithMapSearches)
{
    // The client-side spiral probes cells in exact distance order, so
    // its distance always matches brute/index/scan on an equal error
    // set; its coordinate follows the clockwise-first tie rule and is
    // only pinned when the nearest error is unique (nearest.hpp).
    Rng rng(0x5B1A);
    const std::uint64_t max_r = core::maxSearchRadius(kGeom);
    for (std::size_t errors : {1u, 5u, 80u}) {
        auto plane = mc::randomPlane(kGeom, errors, rng);
        core::ErrorIndex index(plane);
        for (int q = 0; q < 30; ++q) {
            auto from = randomPoint(kGeom, rng);
            auto brute = core::nearestErrorBrute(plane, from);
            auto spiral = core::spiralSearch(
                kGeom, from, max_r,
                [&](const sim::LinePoint &p) {
                    return plane.contains(p);
                });
            ASSERT_EQ(spiral.found, brute.found);
            ASSERT_TRUE(spiral.found);
            EXPECT_EQ(spiral.distance, brute.distance);
            EXPECT_EQ(spiral.distance,
                      index.nearest(from).distance);
            for (util::SimdLevel level :
                 util::supportedSimdLevels()) {
                EXPECT_EQ(
                    spiral.distance,
                    core::nearestErrorScan(plane, from, level)
                        .distance);
            }

            // Unique nearest error => identical coordinate too.
            std::size_t at_min = 0;
            for (const auto &e : plane.errors()) {
                if (sim::manhattan(e, from) == brute.distance)
                    ++at_min;
            }
            if (at_min == 1)
                EXPECT_EQ(spiral.at, brute.at);
        }
    }
}

TEST(NearestScan, CellsExaminedUnifiedAccounting)
{
    // nearest.hpp's unified definition: the brute scan and the SIMD
    // scan examine every error point exactly once; the index
    // examines at most two flank candidates per way row; the batch
    // path examines every gathered flank (no row pruning), so its
    // count is >= the sequential index's and <= 2 * ways.
    Rng rng(0xCE11);
    auto plane = mc::randomPlane(kGeom, 300, rng);
    core::ErrorIndex index(plane);
    core::NearestScratch scratch;
    for (int q = 0; q < 50; ++q) {
        auto from = randomPoint(kGeom, rng);
        auto brute = core::nearestErrorBrute(plane, from);
        EXPECT_EQ(brute.cellsExamined, plane.errorCount());
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            EXPECT_EQ(
                core::nearestErrorScan(plane, from, level)
                    .cellsExamined,
                plane.errorCount());
        }
        auto indexed = index.nearest(from);
        EXPECT_LE(indexed.cellsExamined, 2ull * kGeom.ways());
        core::NearestResult batched;
        index.nearestBatch({&from, 1}, {&batched, 1}, scratch);
        EXPECT_GE(batched.cellsExamined, indexed.cellsExamined);
        EXPECT_LE(batched.cellsExamined, 2ull * kGeom.ways());
    }
}

TEST(NearestScan, EvaluateIndexedMatchesEvaluate)
{
    // The server's batched expected-response path must be
    // bit-identical to the reference evaluation at every width.
    Rng rng(0xEA17);
    core::ErrorMap map = mc::randomErrorMap(kGeom, 700, 60, rng);
    auto indexes = core::buildErrorIndexes(map);
    core::EvalScratch scratch;
    for (int round = 0; round < 20; ++round) {
        auto challenge =
            core::randomChallenge(kGeom, 700, 64, rng);
        auto reference = core::evaluate(map, challenge);
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            auto fast = core::evaluateIndexed(indexes, challenge,
                                              scratch, level);
            EXPECT_EQ(fast, reference)
                << "@" << util::simdLevelName(level);
        }
    }
}

// ---------------------------------------------------------------
// Query-major distance kernel (nearestDistancesSoA), the path behind
// core::evaluate and core::pointDistance.
// ---------------------------------------------------------------

namespace {

/**
 * Run the kernel for @p queries at every supported width and check
 * each distance against nearestErrorBrute (UINT32_MAX when the plane
 * is empty).
 */
void
expectKernelMatchesBrute(const core::ErrorPlane &plane,
                         const std::vector<sim::LinePoint> &queries)
{
    std::vector<std::uint32_t> qs, qw;
    for (const auto &q : queries) {
        qs.push_back(q.set);
        qw.push_back(q.way);
    }
    std::vector<std::uint32_t> out(queries.size());
    for (util::SimdLevel level : util::supportedSimdLevels()) {
        std::fill(out.begin(), out.end(), 0xDEADBEEFu);
        core::nearestDistancesSoA(
            plane.errorSets().data(), plane.errorWays().data(),
            plane.errorCount(), qs.data(), qw.data(), queries.size(),
            out.data(), level);
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

    auto bruteDistance = [&](const core::ChallengePoint &p) {
        if (!map.hasPlane(p.vddMv))
            return core::kInfiniteDistance;
        auto r = core::nearestErrorBrute(map.plane(p.vddMv), p.line);
        return r.found ? r.distance : core::kInfiniteDistance;
    };

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
        core::Response want(bits);
        for (std::size_t i = 0; i < bits; ++i) {
            want.set(i, core::responseBitFromDistances(
                            bruteDistance(challenge.bits[i].a),
                            bruteDistance(challenge.bits[i].b)));
        }
        for (util::SimdLevel level : util::supportedSimdLevels()) {
            EXPECT_EQ(core::evaluate(map, challenge, level), want)
                << "@" << util::simdLevelName(level) << " round "
                << round;
        }
        EXPECT_EQ(core::evaluate(map, challenge), want);
    }
}
