/**
 * @file
 * Tests for cache geometry, the variation model, the environment
 * model, the error log, and the voltage regulator.
 */

#include <set>

#include <gtest/gtest.h>

#include "sim/environment.hpp"
#include "sim/error_log.hpp"
#include "sim/geometry.hpp"
#include "sim/variation.hpp"
#include "sim/voltage_regulator.hpp"
#include "util/stats.hpp"

namespace s = authenticache::sim;

TEST(Geometry, FourMegabyteDefault)
{
    s::CacheGeometry g(4ull * 1024 * 1024);
    EXPECT_EQ(g.sets(), 8192u);
    EXPECT_EQ(g.ways(), 8u);
    EXPECT_EQ(g.lines(), 65536u);
    EXPECT_EQ(g.wordsPerLine(), 8u);
}

TEST(Geometry, ItaniumL2Shape)
{
    // The paper's per-core L2s are 768KB.
    s::CacheGeometry g(768 * 1024);
    EXPECT_EQ(g.lines(), 12288u);
    EXPECT_EQ(g.sets(), 1536u);
}

TEST(Geometry, LineIndexRoundTrip)
{
    s::CacheGeometry g(256 * 1024);
    for (std::uint64_t i = 0; i < g.lines(); i += 97) {
        s::LinePoint p = g.pointOf(i);
        EXPECT_EQ(g.lineIndex(p), i);
    }
}

TEST(Geometry, BoundsChecked)
{
    s::CacheGeometry g(64 * 1024);
    EXPECT_THROW(g.lineIndex({g.sets(), 0}), std::out_of_range);
    EXPECT_THROW(g.pointOf(g.lines()), std::out_of_range);
    EXPECT_FALSE(g.contains({0, 8}));
    EXPECT_TRUE(g.contains({0, 7}));
}

TEST(Geometry, RejectsBadShapes)
{
    EXPECT_THROW(s::CacheGeometry(1000, 64, 8), std::invalid_argument);
    EXPECT_THROW(s::CacheGeometry(64 * 1024, 7, 8),
                 std::invalid_argument);
    EXPECT_THROW(s::CacheGeometry(64 * 1024, 64, 0),
                 std::invalid_argument);
}

TEST(Geometry, RejectsTwoToThe32SetsOrMore)
{
    // sets() is 32 bits: 2^35 sets once narrowed to 0 sets, 0 lines.
    EXPECT_THROW(s::CacheGeometry(std::uint64_t{1} << 41, 64, 1),
                 std::invalid_argument);
    EXPECT_THROW(s::CacheGeometry(std::uint64_t{1} << 38, 64, 1),
                 std::invalid_argument);
    const s::CacheGeometry widest(((std::uint64_t{1} << 32) - 1) * 64,
                                  64, 1);
    EXPECT_EQ(widest.sets(), 0xFFFFFFFFu);
}

TEST(Geometry, SetBytesDoNotWrapInThirtyTwoBits)
{
    // 64-byte lines times 2^26 ways is 2^32 bytes per set, which a
    // 32-bit product wrapped to 0 before the size check divided by it.
    const s::CacheGeometry g(std::uint64_t{3} << 32, 64, 1u << 26);
    EXPECT_EQ(g.sets(), 3u);
    EXPECT_EQ(g.lines(), std::uint64_t{3} << 26);
    EXPECT_THROW(s::CacheGeometry((std::uint64_t{3} << 32) + 64, 64,
                                  1u << 26),
                 std::invalid_argument);
}

TEST(Geometry, PossibleCrpsMatchesEq10)
{
    s::CacheGeometry g(4ull * 1024 * 1024);
    // n(n-1)/2 with n = 65536.
    EXPECT_EQ(g.possibleCrps(), 65536ull * 65535 / 2);
}

TEST(Manhattan, MatchesHandValues)
{
    EXPECT_EQ(s::manhattan({0, 0}, {0, 0}), 0u);
    EXPECT_EQ(s::manhattan({3, 2}, {1, 5}), 5u);
    EXPECT_EQ(s::manhattan({1, 5}, {3, 2}), 5u);
    EXPECT_EQ(s::manhattan({100, 0}, {0, 7}), 107u);
}

TEST(Variation, TailCountNearCalibration)
{
    // 4MB cache: expect ~130 lines in the 65 mV window (Fig 1 measures
    // 122); check we're within a sane band across chips.
    s::CacheGeometry g(4ull * 1024 * 1024);
    s::VariationParams params;
    authenticache::util::RunningStats counts;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        s::VminField field(g, params, seed);
        auto weak = field.linesFailingAt(field.vcorrMv() -
                                         params.windowMv);
        counts.add(static_cast<double>(weak.size()));
    }
    EXPECT_GT(counts.mean(), 90.0);
    EXPECT_LT(counts.mean(), 175.0);
}

TEST(Variation, ChipsHaveIndependentMaps)
{
    s::CacheGeometry g(256 * 1024);
    s::VariationParams params;
    s::VminField f1(g, params, 100);
    s::VminField f2(g, params, 200);
    auto w1 = f1.linesFailingAt(f1.vcorrMv() - params.windowMv);
    auto w2 = f2.linesFailingAt(f2.vcorrMv() - params.windowMv);
    ASSERT_FALSE(w1.empty());
    ASSERT_FALSE(w2.empty());

    // Overlap should be near zero (Figure 3).
    std::size_t overlap = 0;
    std::set<std::uint64_t> set1(w1.begin(), w1.end());
    for (auto l : w2)
        overlap += set1.count(l);
    EXPECT_LE(overlap, 1u);
}

TEST(Variation, SameSeedReproduces)
{
    s::CacheGeometry g(64 * 1024);
    s::VariationParams params;
    s::VminField f1(g, params, 77);
    s::VminField f2(g, params, 77);
    for (std::uint64_t i = 0; i < g.lines(); i += 13) {
        EXPECT_EQ(f1.vCorrectableMv(i), f2.vCorrectableMv(i));
        EXPECT_EQ(f1.weakBit(i), f2.weakBit(i));
        EXPECT_EQ(f1.persistence(i), f2.persistence(i));
    }
}

TEST(Variation, UncorrectableBelowCorrectable)
{
    s::CacheGeometry g(64 * 1024);
    s::VariationParams params;
    s::VminField field(g, params, 3);
    for (std::uint64_t i = 0; i < g.lines(); ++i) {
        EXPECT_LT(field.vUncorrectableMv(i), field.vCorrectableMv(i));
        EXPECT_GE(field.vCorrectableMv(i) - field.vUncorrectableMv(i),
                  params.uncorrGapMinMv - 1e-6);
    }
}

TEST(Variation, FloorLeavesUsableWindow)
{
    // The highest uncorrectable threshold must sit well below Vcorr,
    // or there would be no usable challenge window.
    s::CacheGeometry g(4ull * 1024 * 1024);
    s::VariationParams params;
    s::VminField field(g, params, 9);
    double window = field.vcorrMv() - field.maxUncorrectableMv();
    EXPECT_GT(window, 40.0);
}

TEST(Variation, WeakBitsWithinCodeword)
{
    s::CacheGeometry g(64 * 1024);
    s::VminField field(g, s::VariationParams{}, 5);
    for (std::uint64_t i = 0; i < g.lines(); ++i) {
        EXPECT_LT(field.weakBit(i), 72u);
        EXPECT_LT(field.weakBit2(i), 72u);
        EXPECT_NE(field.weakBit(i), field.weakBit2(i));
        EXPECT_LT(field.weakWord(i), g.wordsPerLine());
    }
}

TEST(Environment, NominalConditionsNoShift)
{
    s::EnvironmentModel env(100, s::EnvironmentParams{}, 1);
    s::Conditions nominal = s::Conditions::nominal();
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(env.thresholdShiftMv(i, nominal), 0.0);
}

TEST(Environment, TemperatureRaisesThresholdOnAverage)
{
    s::EnvironmentModel env(2000, s::EnvironmentParams{}, 2);
    s::Conditions hot;
    hot.temperatureDeltaC = 25.0;
    authenticache::util::RunningStats shift;
    for (std::uint64_t i = 0; i < 2000; ++i)
        shift.add(env.thresholdShiftMv(i, hot));
    // 25C * 0.25 mV/C = ~6.25 mV mean.
    EXPECT_NEAR(shift.mean(), 6.25, 0.5);
    EXPECT_GT(shift.stddev(), 1.0);
}

TEST(Environment, AgingAccumulates)
{
    s::EnvironmentModel env(1000, s::EnvironmentParams{}, 3);
    s::Conditions old_age;
    old_age.agingYears = 5.0;
    s::Conditions young;
    young.agingYears = 1.0;
    authenticache::util::RunningStats ratio;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        double o = env.thresholdShiftMv(i, old_age);
        double y = env.thresholdShiftMv(i, young);
        if (std::abs(y) > 1e-9)
            ratio.add(o / y);
    }
    EXPECT_NEAR(ratio.mean(), 5.0, 0.2);
}

TEST(Environment, JitterHasConfiguredSigma)
{
    s::EnvironmentModel env(10, s::EnvironmentParams{}, 4);
    authenticache::util::Rng rng(1);
    s::Conditions c;
    c.measurementSigmaMv = 2.0;
    authenticache::util::RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(env.measurementJitterMv(c, rng));
    EXPECT_NEAR(stats.mean(), 0.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);

    c.measurementSigmaMv = 0.0;
    EXPECT_EQ(env.measurementJitterMv(c, rng), 0.0);
}

TEST(ErrorLog, PostAndDrain)
{
    s::EccErrorLog log(8);
    s::EccEvent e;
    e.line = {3, 1};
    e.severity = s::EccSeverity::Corrected;
    EXPECT_TRUE(log.post(e));
    EXPECT_EQ(log.pending(), 1u);
    auto drained = log.drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].line, (s::LinePoint{3, 1}));
    EXPECT_EQ(log.pending(), 0u);
}

TEST(ErrorLog, OverflowDropsButCounts)
{
    s::EccErrorLog log(2);
    s::EccEvent e;
    EXPECT_TRUE(log.post(e));
    EXPECT_TRUE(log.post(e));
    EXPECT_FALSE(log.post(e));
    EXPECT_EQ(log.pending(), 2u);
    EXPECT_EQ(log.overflowCount(), 1u);
    EXPECT_EQ(log.totalCorrected(), 3u); // Lifetime counter still ticks.
}

TEST(ErrorLog, SeverityCounters)
{
    s::EccErrorLog log;
    s::EccEvent c;
    c.severity = s::EccSeverity::Corrected;
    s::EccEvent u;
    u.severity = s::EccSeverity::Uncorrectable;
    log.post(c);
    log.post(c);
    log.post(u);
    EXPECT_EQ(log.totalCorrected(), 2u);
    EXPECT_EQ(log.totalUncorrectable(), 1u);
    log.clear();
    EXPECT_EQ(log.totalCorrected(), 0u);
    EXPECT_EQ(log.pending(), 0u);
}

TEST(Regulator, StartsAtNominal)
{
    s::VoltageRegulator vr;
    EXPECT_EQ(vr.vddMv(), 800.0);
}

TEST(Regulator, RequestSetsAndCharges)
{
    s::VoltageRegulator vr;
    double latency = 0.0;
    EXPECT_EQ(vr.request(700.0, &latency), s::VoltageStatus::Ok);
    EXPECT_EQ(vr.vddMv(), 700.0);
    // base 200us + 12us/mV * 100mV.
    EXPECT_NEAR(latency, 200.0 + 1200.0, 1e-9);
    EXPECT_EQ(vr.transitions(), 1u);
}

TEST(Regulator, NoOpRequestIsFree)
{
    s::VoltageRegulator vr;
    double latency = 99.0;
    EXPECT_EQ(vr.request(800.0, &latency), s::VoltageStatus::Ok);
    EXPECT_EQ(latency, 0.0);
    EXPECT_EQ(vr.transitions(), 0u);
}

TEST(Regulator, FloorEnforced)
{
    s::VoltageRegulator vr;
    vr.setFloorMv(650.0);
    EXPECT_EQ(vr.request(640.0), s::VoltageStatus::BelowFloor);
    EXPECT_EQ(vr.vddMv(), 800.0);
    EXPECT_EQ(vr.request(650.0), s::VoltageStatus::Ok);
}

TEST(Regulator, HardwareRangeEnforced)
{
    s::VoltageRegulator vr;
    EXPECT_EQ(vr.request(900.0), s::VoltageStatus::OutOfRange);
    EXPECT_EQ(vr.request(400.0), s::VoltageStatus::OutOfRange);
}

TEST(Regulator, EmergencyRaiseIgnoresFloor)
{
    s::VoltageRegulator vr;
    vr.setFloorMv(600.0);
    ASSERT_EQ(vr.request(620.0), s::VoltageStatus::Ok);
    double latency = vr.emergencyRaise();
    EXPECT_EQ(vr.vddMv(), 800.0);
    EXPECT_GT(latency, 0.0);
}

TEST(Regulator, QuantizesToStep)
{
    s::RegulatorParams params;
    params.stepMv = 5.0;
    s::VoltageRegulator vr(params);
    ASSERT_EQ(vr.request(702.0), s::VoltageStatus::Ok);
    EXPECT_EQ(vr.vddMv(), 700.0);
}
