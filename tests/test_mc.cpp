/**
 * @file
 * Tests for the Monte Carlo harness: map generation, noise profiles,
 * flip-probability estimation, noise-tolerance search, and the
 * distance / quality experiment kernels.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mc/experiments.hpp"
#include "mc/mapgen.hpp"
#include "mc/noise.hpp"

namespace mc = authenticache::mc;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(256 * 1024); // 512 sets x 8 ways.

mc::ExperimentConfig
quickConfig(std::uint64_t seed = 42)
{
    mc::ExperimentConfig cfg;
    cfg.maps = 12;
    cfg.samplesPerMap = 400;
    cfg.seed = seed;
    return cfg;
}

} // namespace

TEST(MapGen, ExactErrorCount)
{
    Rng rng(1);
    auto plane = mc::randomPlane(kGeom, 50, rng);
    EXPECT_EQ(plane.errorCount(), 50u);
    std::set<std::pair<std::uint32_t, std::uint32_t>> unique;
    for (const auto &e : plane.errors())
        unique.insert({e.set, e.way});
    EXPECT_EQ(unique.size(), 50u);
}

TEST(MapGen, SpreadAcrossWays)
{
    // Errors must land in all ways (uniformity, paper Fig 2).
    Rng rng(2);
    auto plane = mc::randomPlane(kGeom, 200, rng);
    std::set<std::uint32_t> ways;
    for (const auto &e : plane.errors())
        ways.insert(e.way);
    EXPECT_EQ(ways.size(), kGeom.ways());
}

TEST(MapGen, MapWrapperMatchesPlane)
{
    Rng rng(3);
    auto map = mc::randomErrorMap(kGeom, 700, 25, rng);
    EXPECT_TRUE(map.hasPlane(700));
    EXPECT_EQ(map.plane(700).errorCount(), 25u);
}

TEST(Noise, ZeroProfileIsIdentity)
{
    Rng rng(4);
    auto plane = mc::randomPlane(kGeom, 40, rng);
    auto noisy = mc::applyNoise(plane, mc::NoiseProfile{}, rng);
    EXPECT_EQ(noisy, plane);
}

TEST(Noise, InjectionAddsExactCount)
{
    Rng rng(5);
    auto plane = mc::randomPlane(kGeom, 40, rng);
    mc::NoiseProfile profile;
    profile.injectFraction = 1.5; // 150% -> 60 new errors.
    auto noisy = mc::applyNoise(plane, profile, rng);
    EXPECT_EQ(noisy.errorCount(), 100u);
    // All original errors survive.
    for (const auto &e : plane.errors())
        EXPECT_TRUE(noisy.contains(e));
}

TEST(Noise, RemovalMasksExactCount)
{
    Rng rng(6);
    auto plane = mc::randomPlane(kGeom, 40, rng);
    mc::NoiseProfile profile;
    profile.removeFraction = 0.25; // 10 masked.
    auto noisy = mc::applyNoise(plane, profile, rng);
    EXPECT_EQ(noisy.errorCount(), 30u);
    for (const auto &e : noisy.errors())
        EXPECT_TRUE(plane.contains(e));
}

TEST(Noise, RemovalCappedAtAllErrors)
{
    Rng rng(7);
    auto plane = mc::randomPlane(kGeom, 10, rng);
    mc::NoiseProfile profile;
    profile.removeFraction = 5.0;
    auto noisy = mc::applyNoise(plane, profile, rng);
    EXPECT_EQ(noisy.errorCount(), 0u);
}

TEST(Noise, CombinedProfile)
{
    Rng rng(8);
    auto plane = mc::randomPlane(kGeom, 40, rng);
    mc::NoiseProfile profile;
    profile.injectFraction = 0.5;
    profile.removeFraction = 0.5;
    auto noisy = mc::applyNoise(plane, profile, rng);
    EXPECT_EQ(noisy.errorCount(), 40u); // -20 +20.
}

TEST(Experiments, InterFlipNearHalf)
{
    double p = mc::estimateInterFlipProbability(kGeom, 50,
                                                quickConfig());
    EXPECT_NEAR(p, 0.5, 0.05);
}

TEST(Experiments, IntraFlipZeroWithoutNoise)
{
    double p = mc::estimateIntraFlipProbability(
        kGeom, 50, mc::NoiseProfile{}, quickConfig());
    EXPECT_EQ(p, 0.0);
}

TEST(Experiments, IntraFlipGrowsWithNoise)
{
    mc::NoiseProfile low;
    low.injectFraction = 0.1;
    mc::NoiseProfile high;
    high.injectFraction = 1.5;
    double p_low = mc::estimateIntraFlipProbability(kGeom, 50, low,
                                                    quickConfig());
    double p_high = mc::estimateIntraFlipProbability(kGeom, 50, high,
                                                     quickConfig());
    EXPECT_GT(p_low, 0.0);
    EXPECT_GT(p_high, p_low);
    EXPECT_LT(p_high, 0.5);
}

TEST(Experiments, HammingDistributionsSeparate)
{
    mc::NoiseProfile noise;
    noise.injectFraction = 0.10;
    auto cfg = quickConfig();
    cfg.maps = 6;
    cfg.samplesPerMap = 20;
    auto samples = mc::hammingDistributions(kGeom, 50, 128, noise, cfg);

    ASSERT_FALSE(samples.intra.empty());
    ASSERT_EQ(samples.intra.size(), samples.inter.size());

    double intra_mean = 0.0;
    double inter_mean = 0.0;
    std::uint32_t intra_max = 0;
    std::uint32_t inter_min = 128;
    for (std::size_t i = 0; i < samples.intra.size(); ++i) {
        intra_mean += samples.intra[i];
        inter_mean += samples.inter[i];
        intra_max = std::max(intra_max, samples.intra[i]);
        inter_min = std::min(inter_min, samples.inter[i]);
    }
    intra_mean /= static_cast<double>(samples.intra.size());
    inter_mean /= static_cast<double>(samples.inter.size());

    // Fig 9 structure: intra near zero, inter near bits/2, and at 10%
    // noise the distributions must not overlap.
    EXPECT_LT(intra_mean, 15.0);
    EXPECT_NEAR(inter_mean, 64.0, 10.0);
    EXPECT_LT(intra_max, inter_min);
}

TEST(Experiments, NoiseToleranceOrderedByCrpSize)
{
    auto cfg = quickConfig();
    cfg.maps = 8;
    cfg.samplesPerMap = 1500;
    auto t128 = mc::maxTolerableNoise(kGeom, 50, 128, true, 1e-6, cfg);
    auto t512 = mc::maxTolerableNoise(kGeom, 50, 512, true, 1e-6, cfg);
    // Larger CRPs tolerate more noise (Fig 10).
    EXPECT_GT(t512.maxNoisePercent, t128.maxNoisePercent);
    EXPECT_GT(t128.maxNoisePercent, 0.0);
    EXPECT_LE(t512.rateAtMax, 1e-6);
}

TEST(Experiments, RemovalTougherThanInjection)
{
    // The paper finds Authenticache more sensitive to removed errors
    // than injected ones.
    auto cfg = quickConfig();
    cfg.maps = 8;
    cfg.samplesPerMap = 1500;
    auto inj = mc::maxTolerableNoise(kGeom, 50, 256, true, 1e-6, cfg);
    auto rem = mc::maxTolerableNoise(kGeom, 50, 256, false, 1e-6, cfg);
    EXPECT_GT(inj.maxNoisePercent, rem.maxNoisePercent);
}

TEST(Experiments, AvgDistanceDecreasesWithErrors)
{
    auto cfg = quickConfig();
    double d20 = mc::averageNearestErrorDistance(kGeom, 20, cfg);
    double d100 = mc::averageNearestErrorDistance(kGeom, 100, cfg);
    EXPECT_GT(d20, d100);
    EXPECT_GT(d100, 0.0);
}

TEST(Experiments, AvgDistanceGrowsWithCacheSize)
{
    auto cfg = quickConfig();
    sim::CacheGeometry small(64 * 1024);
    sim::CacheGeometry large(1024 * 1024);
    double d_small = mc::averageNearestErrorDistance(small, 40, cfg);
    double d_large = mc::averageNearestErrorDistance(large, 40, cfg);
    EXPECT_GT(d_large, d_small);
}

TEST(Experiments, AliasingAndUniformityNearIdeal)
{
    auto cfg = quickConfig();
    cfg.maps = 30;
    cfg.samplesPerMap = 2000;
    // 10 errors in a 256KB plane matches the paper's sparse-density
    // regime; denser maps bias further toward 0 (tie rule, Sec 6.4).
    auto cell = mc::aliasingUniformity(kGeom, 10, 64, cfg);
    EXPECT_NEAR(cell.bitAliasingPercent, 50.0, 2.5);
    EXPECT_NEAR(cell.uniformityPercent, 50.0, 2.5);
    EXPECT_LE(cell.bitAliasingPercent, 51.0);
}

TEST(Experiments, TieBiasGrowsWithErrorDensity)
{
    // More errors -> shorter distances -> more ties -> stronger bias
    // toward "0" (Sec 6.4). Use a small plane to amplify the effect.
    sim::CacheGeometry tiny(64 * 1024);
    auto cfg = quickConfig();
    cfg.maps = 40;
    cfg.samplesPerMap = 4000;
    auto sparse = mc::aliasingUniformity(tiny, 10, 64, cfg);
    auto dense = mc::aliasingUniformity(tiny, 120, 64, cfg);
    EXPECT_LT(dense.uniformityPercent, sparse.uniformityPercent);
}

TEST(Noise, MapOverloadPerturbsEveryPlane)
{
    Rng rng(9);
    core::ErrorMap map(kGeom);
    for (auto idx : rng.sampleDistinct(kGeom.lines(), 20))
        map.plane(700).add(kGeom.pointOf(idx));
    for (auto idx : rng.sampleDistinct(kGeom.lines(), 10))
        map.plane(690).add(kGeom.pointOf(idx));

    mc::NoiseProfile profile;
    profile.injectFraction = 0.5;
    auto noisy = mc::applyNoise(map, profile, rng);

    EXPECT_EQ(noisy.plane(700).errorCount(), 30u); // +10.
    EXPECT_EQ(noisy.plane(690).errorCount(), 15u); // +5.
    // Geometry and level set preserved.
    EXPECT_EQ(noisy.levels(), map.levels());
}

TEST(Experiments, ResultsInvariantUnderThreadCount)
{
    // The engine's core contract: the pool only changes wall-clock,
    // never results. Same seed, widths 1 / 2 / 8 -> bit-identical
    // samples and exactly equal floating-point estimates.
    mc::NoiseProfile noise;
    noise.injectFraction = 0.25;
    auto cfg = quickConfig(0xDE7);
    cfg.maps = 7; // Not a multiple of any width: uneven shards.
    cfg.samplesPerMap = 30;

    cfg.threads = 1;
    auto ref = mc::hammingDistributions(kGeom, 40, 64, noise, cfg);
    double ref_intra =
        mc::estimateIntraFlipProbability(kGeom, 40, noise, cfg);
    double ref_inter = mc::estimateInterFlipProbability(kGeom, 40, cfg);
    double ref_dist = mc::averageNearestErrorDistance(kGeom, 40, cfg);
    auto ref_cell = mc::aliasingUniformity(kGeom, 10, 32, cfg);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        auto got = mc::hammingDistributions(kGeom, 40, 64, noise, cfg);
        EXPECT_EQ(got.intra, ref.intra) << threads << " threads";
        EXPECT_EQ(got.inter, ref.inter) << threads << " threads";
        EXPECT_EQ(mc::estimateIntraFlipProbability(kGeom, 40, noise,
                                                   cfg),
                  ref_intra);
        EXPECT_EQ(mc::estimateInterFlipProbability(kGeom, 40, cfg),
                  ref_inter);
        EXPECT_EQ(mc::averageNearestErrorDistance(kGeom, 40, cfg),
                  ref_dist);
        auto cell = mc::aliasingUniformity(kGeom, 10, 32, cfg);
        EXPECT_EQ(cell.bitAliasingPercent, ref_cell.bitAliasingPercent);
        EXPECT_EQ(cell.uniformityPercent, ref_cell.uniformityPercent);
    }
}

TEST(Experiments, SampleLayoutIsMapMajor)
{
    // Samples land at [map * samplesPerMap + sample] regardless of
    // completion order, so downstream histograms see a stable layout.
    mc::NoiseProfile noise;
    noise.injectFraction = 0.1;
    auto cfg = quickConfig(7);
    cfg.maps = 5;
    cfg.samplesPerMap = 11;
    auto s = mc::hammingDistributions(kGeom, 30, 32, noise, cfg);
    EXPECT_EQ(s.intra.size(), cfg.maps * cfg.samplesPerMap);
    EXPECT_EQ(s.inter.size(), cfg.maps * cfg.samplesPerMap);
}

TEST(Noise, MapOverloadKeepsEmptiedPlanes)
{
    Rng rng(10);
    core::ErrorMap map(kGeom);
    map.plane(700).add({1, 1});
    mc::NoiseProfile profile;
    profile.removeFraction = 1.0;
    auto noisy = mc::applyNoise(map, profile, rng);
    ASSERT_TRUE(noisy.hasPlane(700));
    EXPECT_EQ(noisy.plane(700).errorCount(), 0u);
}

// ---------------------------------------------------------------
// Goldens. Recorded with the per-point indexed search the estimators
// used before they moved to batched kernel calls; any change to how
// the nearest-error distances are computed must keep every value
// exactly, at every execution width (doubles compared with EXPECT_EQ).
// ---------------------------------------------------------------

namespace {

mc::ExperimentConfig
goldenConfig(unsigned threads, std::size_t maps, std::size_t samples)
{
    mc::ExperimentConfig cfg;
    cfg.maps = maps;
    cfg.samplesPerMap = samples;
    cfg.seed = 0x601D;
    cfg.threads = threads;
    return cfg;
}

mc::NoiseProfile
goldenNoise()
{
    mc::NoiseProfile noise;
    noise.injectFraction = 0.5;
    return noise;
}

} // namespace

TEST(ExperimentsGolden, HammingDistributions)
{
    const std::vector<std::uint32_t> intra20 = {
        5, 3, 7, 8, 7, 4, 5, 10, 6, 8, 4, 2,
        6, 5, 4, 8, 4, 8, 5, 5, 6, 3, 7, 10};
    const std::vector<std::uint32_t> inter20 = {
        14, 15, 17, 17, 21, 12, 17, 17, 19, 14, 19, 18,
        13, 12, 15, 14, 16, 15, 18, 24, 16, 15, 16, 16};
    const std::vector<std::uint32_t> intra100 = {
        9, 9, 5, 5, 8, 4, 5, 4, 5, 4, 5, 7,
        5, 5, 7, 6, 7, 8, 4, 4, 5, 4, 6, 9};
    const std::vector<std::uint32_t> inter100 = {
        13, 13, 15, 12, 14, 15, 15, 13, 16, 12, 15, 15,
        18, 14, 14, 16, 16, 17, 18, 13, 16, 18, 20, 16};
    for (unsigned threads : {1u, 4u}) {
        const auto cfg = goldenConfig(threads, 3, 8);
        auto s20 = mc::hammingDistributions(kGeom, 20, 32, goldenNoise(),
                                            cfg);
        EXPECT_EQ(s20.intra, intra20) << threads << " threads";
        EXPECT_EQ(s20.inter, inter20) << threads << " threads";
        auto s100 = mc::hammingDistributions(kGeom, 100, 32,
                                             goldenNoise(), cfg);
        EXPECT_EQ(s100.intra, intra100) << threads << " threads";
        EXPECT_EQ(s100.inter, inter100) << threads << " threads";
    }
}

TEST(ExperimentsGolden, FlipProbabilitiesAndDistance)
{
    for (unsigned threads : {1u, 4u}) {
        const auto cfg = goldenConfig(threads, 5, 64);
        EXPECT_EQ(mc::estimateIntraFlipProbability(kGeom, 20,
                                                   goldenNoise(), cfg),
                  0.15312500000000001);
        EXPECT_EQ(mc::estimateIntraFlipProbability(kGeom, 100,
                                                   goldenNoise(), cfg),
                  0.13437499999999999);
        EXPECT_EQ(mc::estimateInterFlipProbability(kGeom, 20, cfg),
                  0.45937499999999998);
        EXPECT_EQ(mc::estimateInterFlipProbability(kGeom, 100, cfg),
                  0.50312500000000004);
        EXPECT_EQ(mc::averageNearestErrorDistance(kGeom, 20, cfg),
                  15.5625);
        EXPECT_EQ(mc::averageNearestErrorDistance(kGeom, 100, cfg),
                  4.921875);
    }
}

TEST(ExperimentsGolden, AliasingUniformity)
{
    for (unsigned threads : {1u, 4u}) {
        const auto cfg = goldenConfig(threads, 5, 64);
        auto c20 = mc::aliasingUniformity(kGeom, 20, 32, cfg);
        EXPECT_EQ(c20.bitAliasingPercent, 49.6875);
        EXPECT_EQ(c20.uniformityPercent, 55.625);
        auto c100 = mc::aliasingUniformity(kGeom, 100, 32, cfg);
        EXPECT_EQ(c100.bitAliasingPercent, 41.5625);
        EXPECT_EQ(c100.uniformityPercent, 41.875);
    }
}

TEST(ExperimentsGolden, MaxTolerableRemovalNoise)
{
    // The bisection starts at 100% removal, where every noisy plane is
    // empty and every distance on it infinite.
    for (unsigned threads : {1u, 4u}) {
        const auto cfg = goldenConfig(threads, 5, 64);
        auto t = mc::maxTolerableNoise(kGeom, 100, 64, false, 1e-6, cfg);
        EXPECT_EQ(t.maxNoisePercent, 8.4999978542327881);
        EXPECT_EQ(t.pIntraAtMax, 0.040625000000000001);
        EXPECT_EQ(t.pInter, 0.50312500000000004);
        EXPECT_EQ(t.rateAtMax, 7.3789678684330997e-07);
    }
}
