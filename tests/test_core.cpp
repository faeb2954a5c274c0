/**
 * @file
 * Tests for the core PUF library: error maps, nearest-error search
 * (brute vs spiral equivalence), challenge evaluation, remapping, and
 * CRP capacity math.
 */

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "core/challenge.hpp"
#include "core/crp.hpp"
#include "core/error_map.hpp"
#include "core/nearest.hpp"
#include "core/remap.hpp"
#include "crypto/sha256.hpp"

namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace crypto = authenticache::crypto;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kSmall(64 * 1024); // 128 sets x 8 ways.

core::ErrorMap
randomMap(const sim::CacheGeometry &geom, core::VddMv level,
          std::size_t errors, std::uint64_t seed)
{
    Rng rng(seed);
    core::ErrorMap map(geom);
    for (auto idx : rng.sampleDistinct(geom.lines(), errors))
        map.plane(level).add(geom.pointOf(idx));
    return map;
}

} // namespace

TEST(ErrorPlane, AddRemoveContains)
{
    core::ErrorPlane plane(kSmall);
    sim::LinePoint p{5, 2};
    EXPECT_FALSE(plane.contains(p));
    plane.add(p);
    EXPECT_TRUE(plane.contains(p));
    EXPECT_EQ(plane.errorCount(), 1u);
    plane.add(p); // Idempotent.
    EXPECT_EQ(plane.errorCount(), 1u);
    plane.remove(p);
    EXPECT_FALSE(plane.contains(p));
    plane.remove(p); // Idempotent.
    EXPECT_EQ(plane.errorCount(), 0u);
}

TEST(ErrorPlane, ErrorsStaySorted)
{
    core::ErrorPlane plane(kSmall);
    plane.add({9, 1});
    plane.add({2, 7});
    plane.add({2, 3});
    const auto errors = plane.errors();
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_TRUE(std::is_sorted(errors.begin(), errors.end()));
}

TEST(ErrorMap, PlanesPerVoltage)
{
    core::ErrorMap map(kSmall);
    map.plane(680).add({1, 1});
    map.plane(690).add({2, 2});
    map.plane(690).add({3, 3});
    EXPECT_TRUE(map.hasPlane(680));
    EXPECT_FALSE(map.hasPlane(700));
    EXPECT_EQ(map.levels(), (std::vector<core::VddMv>{680, 690}));
    EXPECT_EQ(map.totalErrors(), 3u);
    EXPECT_THROW(std::as_const(map).plane(700), std::out_of_range);
}

TEST(ErrorMap, AddSweepBulkInsert)
{
    core::ErrorMap map(kSmall);
    std::vector<sim::LinePoint> lines{{1, 0}, {5, 5}, {1, 0}};
    map.addSweep(700, lines);
    EXPECT_EQ(map.plane(700).errorCount(), 2u);
}

namespace {

/**
 * @p plane holds exactly @p want, in (set, way) order, in every view:
 * errors(), its operator[], the line-index stream, and equality with
 * the same points built in one bulk pass.
 */
void
expectPlaneHolds(const core::ErrorPlane &plane,
                 const std::set<sim::LinePoint> &want)
{
    const std::vector<sim::LinePoint> points(want.begin(), want.end());
    ASSERT_EQ(plane.errorCount(), points.size());
    ASSERT_EQ(plane.errorLines().size(), points.size());
    EXPECT_TRUE(std::ranges::equal(plane.errors(), points));
    const auto errors = plane.errors();
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(errors[i], points[i]);
        EXPECT_EQ(plane.errorLines()[i],
                  plane.geometry().lineIndex(points[i]));
    }
    core::ErrorPlane bulk(plane.geometry());
    bulk.addAll(points);
    EXPECT_EQ(plane, bulk);
}

} // namespace

TEST(ErrorPlane, RejectsGeometryAboveTwoToThe32Lines)
{
    // A line index is 32 bits: 2^32 lines fit, 2^33 do not, whether
    // the plane is built directly or through its map.
    const sim::CacheGeometry fits(std::uint64_t{1} << 38, 64, 16);
    ASSERT_EQ(fits.lines(), std::uint64_t{1} << 32);
    core::ErrorPlane plane(fits);
    const sim::LinePoint last = fits.pointOf(fits.lines() - 1);
    plane.add(last);
    plane.add({0, 0});
    EXPECT_TRUE(plane.contains(last));
    EXPECT_EQ(plane.errorLines().back(), 0xFFFFFFFFu);
    EXPECT_TRUE(std::ranges::equal(
        plane.errors(), std::vector<sim::LinePoint>{{0, 0}, last}));

    const sim::CacheGeometry above(std::uint64_t{1} << 39, 64, 8);
    ASSERT_EQ(above.lines(), std::uint64_t{1} << 33);
    EXPECT_THROW(core::ErrorPlane{above}, std::invalid_argument);
    core::ErrorMap map(above);
    EXPECT_THROW(map.plane(700), std::invalid_argument);
    EXPECT_FALSE(map.hasPlane(700));
}

/** Cache sizes of 1024 and 65 536 lines. */
class ErrorPlaneOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ErrorPlaneOracle, RandomOpsMatchSet)
{
    const sim::CacheGeometry geom(GetParam());
    Rng rng(geom.lines());
    // A small pool makes repeats common: adds of present lines and
    // removes of absent ones. It holds both corners and two points
    // just outside the cache.
    std::vector<sim::LinePoint> pool{{0, 0},
                                     geom.pointOf(geom.lines() - 1),
                                     {geom.sets(), 0},
                                     {0, geom.ways()}};
    while (pool.size() < 40)
        pool.push_back(geom.pointOf(rng.nextBelow(geom.lines())));

    core::ErrorPlane plane(geom);
    std::set<sim::LinePoint> want;
    for (int step = 0; step < 600; ++step) {
        const sim::LinePoint p = pool[rng.nextBelow(pool.size())];
        const auto op = rng.nextBelow(3);
        if (!geom.contains(p)) {
            EXPECT_THROW(op == 0   ? plane.add(p)
                         : op == 1 ? plane.remove(p)
                                   : (void)plane.contains(p),
                         std::out_of_range);
            const std::vector<sim::LinePoint> batch{pool[0], p};
            EXPECT_THROW(plane.addAll(batch), std::out_of_range);
        } else if (op == 0) {
            plane.add(p);
            want.insert(p);
        } else if (op == 1) {
            plane.remove(p);
            want.erase(p);
        } else {
            EXPECT_EQ(plane.contains(p), want.count(p) > 0);
        }
        expectPlaneHolds(plane, want);
    }
}

TEST_P(ErrorPlaneOracle, AddSweepEqualsOneByOne)
{
    const sim::CacheGeometry geom(GetParam());
    Rng rng(geom.lines() + 1);
    // Unsorted draws, every third one repeated later in the sweep.
    std::vector<sim::LinePoint> sweep;
    for (int i = 0; i < 300; ++i) {
        sweep.push_back(geom.pointOf(rng.nextBelow(geom.lines())));
        if (i % 3 == 0)
            sweep.push_back(sweep[rng.nextBelow(sweep.size())]);
    }
    const std::size_t half = sweep.size() / 2;
    core::ErrorMap bulk(geom), single(geom);
    std::set<sim::LinePoint> want;
    // Two sweeps: the second merges into the plane the first made.
    for (auto part : {std::span(sweep).first(half),
                      std::span(sweep).subspan(half)}) {
        bulk.addSweep(700, part);
        for (const auto &p : part) {
            single.plane(700).add(p);
            want.insert(p);
        }
        EXPECT_EQ(bulk, single);
        expectPlaneHolds(std::as_const(bulk).plane(700), want);
    }
}

INSTANTIATE_TEST_SUITE_P(Lines, ErrorPlaneOracle,
                         ::testing::Values(64 * 1024,
                                           4 * 1024 * 1024));

TEST(ErrorMap, LevelsStayAscendingAndEqualityIgnoresInsertOrder)
{
    const std::vector<core::VddMv> order{710, 680, 730, 690, 700, 680};
    core::ErrorMap forward(kSmall), backward(kSmall);
    for (std::size_t i = 0; i < order.size(); ++i) {
        forward.plane(order[i]).add(kSmall.pointOf(i));
        const auto levels = forward.levels();
        EXPECT_TRUE(std::is_sorted(levels.begin(), levels.end()));
    }
    for (std::size_t i = order.size(); i-- > 0;)
        backward.plane(order[i]).add(kSmall.pointOf(i));
    EXPECT_EQ(forward.levels(),
              (std::vector<core::VddMv>{680, 690, 700, 710, 730}));
    EXPECT_EQ(std::as_const(forward).plane(680).errorCount(), 2u);
    EXPECT_EQ(forward, backward);
    for (core::VddMv missing : {0u, 685u, 740u}) {
        EXPECT_FALSE(forward.hasPlane(missing));
        EXPECT_THROW(std::as_const(forward).plane(missing),
                     std::out_of_range);
    }
    // An extra plane, even an empty one, makes the maps differ.
    backward.plane(720);
    EXPECT_NE(forward, backward);
}

TEST(Nearest, BruteOnKnownPlane)
{
    core::ErrorPlane plane(kSmall);
    plane.add({10, 0});
    plane.add({20, 7});
    auto r = core::nearestErrorBrute(plane, {12, 1});
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.distance, 3u); // |12-10| + |1-0|.
    EXPECT_EQ(r.at, (sim::LinePoint{10, 0}));
}

TEST(Nearest, BruteEmptyPlane)
{
    core::ErrorPlane plane(kSmall);
    auto r = core::nearestErrorBrute(plane, {0, 0});
    EXPECT_FALSE(r.found);
}

TEST(Nearest, RingCellsRadiusZeroAndOne)
{
    auto r0 = core::ringCells(kSmall, {10, 4}, 0);
    ASSERT_EQ(r0.size(), 1u);
    EXPECT_EQ(r0[0], (sim::LinePoint{10, 4}));

    auto r1 = core::ringCells(kSmall, {10, 4}, 1);
    ASSERT_EQ(r1.size(), 4u);
    // Clockwise from north: (10,5), (11,4), (10,3), (9,4).
    EXPECT_EQ(r1[0], (sim::LinePoint{10, 5}));
    EXPECT_EQ(r1[1], (sim::LinePoint{11, 4}));
    EXPECT_EQ(r1[2], (sim::LinePoint{10, 3}));
    EXPECT_EQ(r1[3], (sim::LinePoint{9, 4}));
}

TEST(Nearest, RingCellsClippedAtBounds)
{
    // Corner point: most of the ring is out of bounds.
    auto cells = core::ringCells(kSmall, {0, 0}, 2);
    for (const auto &c : cells) {
        EXPECT_TRUE(kSmall.contains(c));
        EXPECT_EQ(sim::manhattan(c, {0, 0}), 2u);
    }
    ASSERT_EQ(cells.size(), 3u); // (0,2), (1,1), (2,0).
}

TEST(Nearest, RingCellsExactlyTheRing)
{
    // All in-bound cells at the radius, no duplicates, none missing.
    sim::LinePoint center{30, 3};
    for (std::uint64_t r : {1ull, 2ull, 5ull, 9ull, 15ull}) {
        auto cells = core::ringCells(kSmall, center, r);
        std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
        for (const auto &c : cells) {
            EXPECT_TRUE(kSmall.contains(c));
            EXPECT_EQ(sim::manhattan(c, center), r);
            EXPECT_TRUE(seen.insert({c.set, c.way}).second);
        }
        // Count by enumeration over the full plane.
        std::size_t expected = 0;
        for (std::uint32_t set = 0; set < kSmall.sets(); ++set) {
            for (std::uint32_t way = 0; way < kSmall.ways(); ++way) {
                if (sim::manhattan({set, way}, center) == r)
                    ++expected;
            }
        }
        EXPECT_EQ(cells.size(), expected) << "radius " << r;
    }
}

TEST(Nearest, SpiralEqualsBruteOnRandomMaps)
{
    // Property: spiral search with a perfect probe finds the same
    // distance as the brute-force scan, for random maps and points.
    Rng rng(321);
    for (int trial = 0; trial < 20; ++trial) {
        auto map = randomMap(kSmall, 700, 1 + trial, 1000 + trial);
        const auto &plane = map.plane(700);
        auto probe = [&](const sim::LinePoint &p) {
            return plane.contains(p);
        };
        for (int q = 0; q < 30; ++q) {
            sim::LinePoint from{
                static_cast<std::uint32_t>(rng.nextBelow(kSmall.sets())),
                static_cast<std::uint32_t>(rng.nextBelow(kSmall.ways()))};
            auto brute = core::nearestErrorBrute(plane, from);
            auto spiral = core::spiralSearch(
                kSmall, from, core::maxSearchRadius(kSmall), probe);
            ASSERT_EQ(spiral.found, brute.found);
            ASSERT_EQ(spiral.distance, brute.distance);
        }
    }
}

TEST(Nearest, SpiralRespectsMaxRadius)
{
    core::ErrorPlane plane(kSmall);
    plane.add({100, 0});
    auto probe = [&](const sim::LinePoint &p) {
        return plane.contains(p);
    };
    auto r = core::spiralSearch(kSmall, {0, 0}, 10, probe);
    EXPECT_FALSE(r.found);
}

TEST(Nearest, MaxSearchRadiusIsTight)
{
    // The farthest reachable cell from any corner is the opposite
    // corner at (sets-1) + (ways-1); anything larger walks rings that
    // are guaranteed empty.
    EXPECT_EQ(core::maxSearchRadius(kSmall),
              static_cast<std::uint64_t>(kSmall.sets() - 1) +
                  (kSmall.ways() - 1));
}

TEST(Nearest, SpiralStopsAtFirstEmptyRing)
{
    // On an error-free plane a corner search must examine each of the
    // plane's cells exactly once and then give up at the first empty
    // ring -- no walk through radii past the plane's extent.
    core::ErrorPlane plane(kSmall);
    auto probe = [&](const sim::LinePoint &p) {
        return plane.contains(p);
    };
    auto r = core::spiralSearch(kSmall, {0, 0},
                                core::maxSearchRadius(kSmall), probe);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.cellsExamined, kSmall.lines());

    // Even a wildly inflated give-up radius terminates at the same
    // cost thanks to the empty-ring early exit.
    auto r2 = core::spiralSearch(kSmall, {0, 0}, 1u << 20, probe);
    EXPECT_FALSE(r2.found);
    EXPECT_EQ(r2.cellsExamined, kSmall.lines());
}

TEST(Nearest, SpiralFindsCenter)
{
    core::ErrorPlane plane(kSmall);
    plane.add({5, 5});
    auto probe = [&](const sim::LinePoint &p) {
        return plane.contains(p);
    };
    auto r = core::spiralSearch(kSmall, {5, 5}, 10, probe);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.distance, 0u);
    EXPECT_EQ(r.cellsExamined, 1u);
}

TEST(Challenge, ResponseBitSemantics)
{
    // Eq 8: 0 when dist(A) <= dist(B).
    EXPECT_FALSE(core::responseBitFromDistances(3, 5));
    EXPECT_FALSE(core::responseBitFromDistances(5, 5));
    EXPECT_TRUE(core::responseBitFromDistances(6, 5));
}

TEST(Challenge, EvaluateKnownMap)
{
    core::ErrorMap map(kSmall);
    map.plane(700).add({10, 0});

    core::Challenge ch;
    // A at distance 2, B at distance 5 -> closer is A -> bit 0.
    ch.bits.push_back({{{ 8, 0}, 700}, {{15, 0}, 700}});
    // A at distance 7, B at distance 1 -> bit 1.
    ch.bits.push_back({{{ 3, 0}, 700}, {{11, 0}, 700}});
    auto resp = core::evaluate(map, ch);
    EXPECT_FALSE(resp.get(0));
    EXPECT_TRUE(resp.get(1));
}

TEST(Challenge, MissingPlaneIsInfiniteDistance)
{
    core::ErrorMap map(kSmall);
    map.plane(700).add({10, 0});

    core::Challenge ch;
    // A has no plane (infinite), B has an error: bit = 1.
    ch.bits.push_back({{{0, 0}, 650}, {{10, 1}, 700}});
    // Both missing: tie -> 0.
    ch.bits.push_back({{{0, 0}, 650}, {{10, 1}, 651}});
    auto resp = core::evaluate(map, ch);
    EXPECT_TRUE(resp.get(0));
    EXPECT_FALSE(resp.get(1));
}

TEST(Challenge, RandomChallengeDistinctPoints)
{
    Rng rng(77);
    auto ch = core::randomChallenge(kSmall, 700, 64, rng);
    EXPECT_EQ(ch.size(), 64u);
    std::set<std::uint64_t> lines;
    for (const auto &bit : ch.bits) {
        EXPECT_EQ(bit.a.vddMv, 700u);
        lines.insert(kSmall.lineIndex(bit.a.line));
        lines.insert(kSmall.lineIndex(bit.b.line));
    }
    EXPECT_EQ(lines.size(), 128u);
}

TEST(Remap, IdentityWithZeroKey)
{
    core::LogicalRemap remap(crypto::Key256::zero(), kSmall);
    EXPECT_TRUE(remap.isIdentity());
    sim::LinePoint p{7, 3};
    EXPECT_EQ(remap.map(p, 700), p);
    EXPECT_EQ(remap.unmap(p, 700), p);
}

TEST(Remap, RoundTripsEveryLine)
{
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("remap-test")));
    core::LogicalRemap remap(key, kSmall);
    EXPECT_FALSE(remap.isIdentity());
    for (std::uint64_t i = 0; i < kSmall.lines(); i += 7) {
        sim::LinePoint p = kSmall.pointOf(i);
        EXPECT_EQ(remap.unmap(remap.map(p, 700), 700), p);
    }
}

TEST(Remap, LevelsPermuteIndependently)
{
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("levels")));
    core::LogicalRemap remap(key, kSmall);
    int same = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        sim::LinePoint p = kSmall.pointOf(i);
        same += remap.map(p, 700) == remap.map(p, 690);
    }
    EXPECT_LT(same, 5);
}

TEST(Remap, MapErrorMapPreservesCounts)
{
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("counts")));
    core::LogicalRemap remap(key, kSmall);
    auto physical = randomMap(kSmall, 700, 40, 5);
    auto logical = remap.mapErrorMap(physical);
    EXPECT_EQ(logical.plane(700).errorCount(), 40u);
    // Permuted, not equal (overwhelmingly likely).
    EXPECT_FALSE(logical == physical);
}

TEST(Remap, ChallengeUnmapInvertsMapping)
{
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("challenge")));
    core::LogicalRemap remap(key, kSmall);

    // Response on the physical map to a physical challenge equals
    // response on the logical map to the mapped challenge.
    auto physical = randomMap(kSmall, 700, 30, 6);
    auto logical = remap.mapErrorMap(physical);

    Rng rng(8);
    auto logical_ch = core::randomChallenge(kSmall, 700, 32, rng);
    auto physical_ch = remap.unmapChallenge(logical_ch);

    // Note: distances are evaluated in each space consistently; the
    // logical evaluation is the ground truth the server uses.
    auto server_resp = core::evaluate(logical, logical_ch);

    // The client, evaluating physically with a spiral probe in logical
    // space, must reproduce it; emulate by evaluating the logical map
    // built from the physical one.
    auto client_resp =
        core::evaluate(remap.mapErrorMap(physical), logical_ch);
    EXPECT_EQ(server_resp, client_resp);

    // And the physical challenge addresses the permuted lines.
    EXPECT_EQ(remap.unmapChallenge(logical_ch).bits[0].a.line,
              physical_ch.bits[0].a.line);
}

TEST(Crp, Equation10)
{
    EXPECT_EQ(core::possibleCrps(4), 6u);
    EXPECT_EQ(core::possibleCrps(65536), 65536ull * 65535 / 2);
}

TEST(Crp, Table1Values)
{
    // Paper Table 1: daily authentications over 10 years.
    const std::uint64_t lines_4mb = 65536;
    const std::uint64_t lines_32mb = 524288;
    EXPECT_EQ(core::authenticationsPerDay(lines_4mb, 64), 9192u);
    EXPECT_EQ(core::authenticationsPerDay(lines_4mb, 128), 4596u);
    EXPECT_EQ(core::authenticationsPerDay(lines_4mb, 256), 2298u);
    EXPECT_EQ(core::authenticationsPerDay(lines_4mb, 512), 1149u);
    // Exact integer accounting gives 73543 / 588350; the paper's
    // Table 1 prints 73544 / 588350 (rounded vs floored).
    EXPECT_EQ(core::authenticationsPerDay(lines_32mb, 512), 73543u);
    EXPECT_EQ(core::authenticationsPerDay(lines_32mb, 64), 588350u);
}

TEST(Crp, DegenerateInputs)
{
    EXPECT_EQ(core::possibleAuthentications(100, 0), 0u);
    EXPECT_EQ(core::authenticationsPerDay(100, 64, 0), 0u);
}
