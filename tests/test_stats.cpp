/**
 * @file
 * Tests for statistics helpers, including the binomial machinery the
 * identifiability analysis (FAR/FRR, Eq 3-4) depends on, plus the
 * registerStat-style self-reporting of the substrate plugins.
 */

#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "firmware/client.hpp"
#include "mc/mapgen.hpp"
#include "protocol/channel.hpp"
#include "server/server.hpp"
#include "substrate/config.hpp"
#include "substrate/registry.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"
#include "util/stats_registry.hpp"

namespace u = authenticache::util;
namespace fw = authenticache::firmware;
namespace sub = authenticache::substrate;
namespace srv = authenticache::server;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;

TEST(RunningStats, EmptyIsZero)
{
    u::RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    u::RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleVarianceZero)
{
    u::RunningStats s;
    s.add(3.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.mean(), 3.0);
}

TEST(Histogram, BinningAndClamping)
{
    u::Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamped to bin 0
    h.add(15.0);  // clamped to bin 9
    h.add(5.0);   // bin 5
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.binCount(5), 1u);
}

TEST(Histogram, CentersAndFractions)
{
    u::Histogram h(0.0, 4.0, 4);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(3), 3.5);
    h.add(0.1);
    h.add(0.2);
    h.add(3.9);
    EXPECT_NEAR(h.binFraction(0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(h.binFraction(3), 1.0 / 3.0, 1e-12);
}

TEST(Histogram, EmpiricalCdf)
{
    u::Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.cdf(4.6), 0.5, 1e-12);
    EXPECT_NEAR(h.cdf(100.0), 1.0, 1e-12);
}

TEST(Binomial, CoefficientMatchesPascal)
{
    EXPECT_NEAR(std::exp(u::logBinomialCoefficient(5, 2)), 10.0, 1e-9);
    EXPECT_NEAR(std::exp(u::logBinomialCoefficient(10, 5)), 252.0, 1e-6);
    EXPECT_NEAR(std::exp(u::logBinomialCoefficient(64, 0)), 1.0, 1e-9);
    EXPECT_NEAR(std::exp(u::logBinomialCoefficient(64, 64)), 1.0, 1e-9);
}

TEST(Binomial, PmfSumsToOne)
{
    for (double p : {0.1, 0.5, 0.9}) {
        double acc = 0.0;
        for (std::uint64_t k = 0; k <= 64; ++k)
            acc += u::binomialPmf(64, k, p);
        EXPECT_NEAR(acc, 1.0, 1e-9);
    }
}

TEST(Binomial, PmfDegenerateProbabilities)
{
    EXPECT_EQ(u::binomialPmf(10, 0, 0.0), 1.0);
    EXPECT_EQ(u::binomialPmf(10, 3, 0.0), 0.0);
    EXPECT_EQ(u::binomialPmf(10, 10, 1.0), 1.0);
    EXPECT_EQ(u::binomialPmf(10, 9, 1.0), 0.0);
}

TEST(Binomial, CdfKnownValues)
{
    // X ~ Bino(10, 0.5): P[X <= 5] = 0.623046875.
    EXPECT_NEAR(u::binomialCdf(10, 5, 0.5), 0.623046875, 1e-9);
    // P[X <= 0] = 2^-10.
    EXPECT_NEAR(u::binomialCdf(10, 0, 0.5), 1.0 / 1024.0, 1e-12);
}

TEST(Binomial, CdfBoundaries)
{
    EXPECT_EQ(u::binomialCdf(10, -1, 0.5), 0.0);
    EXPECT_EQ(u::binomialCdf(10, 10, 0.5), 1.0);
    EXPECT_EQ(u::binomialCdf(10, 25, 0.5), 1.0);
}

TEST(Binomial, SfComplementsCdf)
{
    for (std::int64_t k : {0, 3, 7, 10}) {
        double total = u::binomialCdf(10, k, 0.3) +
                       u::binomialSf(10, k, 0.3);
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(Binomial, TinyTailsRepresentable)
{
    // The 1 ppm identifiability criterion needs accurate tiny tails:
    // P[X <= 100] for X ~ Bino(512, 0.5) is astronomically small but
    // must be > 0 and well below 1e-6.
    double far = u::binomialCdf(512, 100, 0.5);
    EXPECT_GT(far, 0.0);
    EXPECT_LT(far, 1e-6);
}

TEST(Binomial, SymmetryAtHalf)
{
    // For p = 0.5, P[X <= k] == P[X >= n-k].
    double lhs = u::binomialCdf(64, 20, 0.5);
    double rhs = u::binomialSf(64, 43, 0.5);
    EXPECT_NEAR(lhs, rhs, 1e-12);
}

TEST(Binomial, ConcurrentCallersAgree)
{
    // Pool threads verify concurrently, and the verifier's threshold
    // search runs the binomial CDF. It must not share state between
    // callers (std::lgamma writes the global signgam; the ThreadSanitizer
    // CI job runs this case).
    const double want = u::binomialCdf(512, 200, 0.4);
    std::vector<double> got(4, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
        threads.emplace_back([&got, t] {
            for (int i = 0; i < 50; ++i)
                got[t] = u::binomialCdf(512, 200, 0.4);
        });
    }
    for (auto &th : threads)
        th.join();
    for (double g : got)
        EXPECT_EQ(g, want);
}

TEST(NormalCdf, ReferencePoints)
{
    EXPECT_NEAR(u::normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(u::normalCdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(u::normalCdf(-1.96), 0.025, 1e-3);
}

TEST(Proportion, ConfidenceShrinksWithSamples)
{
    double wide = u::proportionConfidence95(0.5, 100);
    double narrow = u::proportionConfidence95(0.5, 10000);
    EXPECT_GT(wide, narrow);
    EXPECT_NEAR(narrow, 1.96 * 0.005, 1e-9);
}

TEST(PluginStats, EverySubstrateSelfReportsUnderItsNamespace)
{
    // Both builtin plugins must publish the same substrate.* schema
    // plus their ECC scheme's ecc.* namespace -- the CLI's --stats
    // output and any external scraper depend on these names.
    for (const std::string &name : sub::substrateNames()) {
        SCOPED_TRACE(name);
        sub::PlatformConfig cfg;
        cfg.substrate = name;
        cfg.cacheBytes = 64 * 1024;
        auto chip = sub::makeSubstrate(cfg, 0x57A7);
        fw::SimulatedMachine machine;
        fw::AuthenticacheClient client(*chip, machine);
        client.boot();

        u::StatsRegistry registry;
        chip->reportStats(registry, "substrate");

        for (const char *stat :
             {"word_reads", "word_writes", "ecc_corrected",
              "ecc_uncorrectable", "ecc_log_overflows",
              "level_transitions", "line_self_tests"}) {
            SCOPED_TRACE(stat);
            EXPECT_TRUE(
                registry.getInt("substrate", stat).has_value());
        }
        // Boot calibration sweeps the array and moves the level, so
        // the activity counters must already be live.
        EXPECT_GT(*registry.getInt("substrate", "line_self_tests"),
                  0u);
        EXPECT_GT(*registry.getInt("substrate", "level_transitions"),
                  0u);
        EXPECT_GT(*registry.getFloat("substrate", "level"), 0.0);

        EXPECT_EQ(*registry.getInt("ecc", "data_bits"), 64u);
        EXPECT_EQ(*registry.getInt("ecc", "corrects"), 1u);
        EXPECT_GT(*registry.getInt("ecc", "decodes"), 0u);
    }
}

TEST(ServerTrustStats, LedgerCountersSurfaceInRegistry)
{
    // A heartbeat session with a silent client: two missed rounds are
    // enough to light up the decay / failed-heartbeat / step-up
    // counters, and the full server.trust.* schema the CLI's --stats
    // output depends on must be present from the first collection.
    srv::ServerConfig cfg;
    cfg.trust.periodSteps = 2;
    srv::AuthenticationServer server(cfg, 0x57A8);
    u::SimClock clock;
    server.bindClock(&clock);

    const sim::CacheGeometry geom(256 * 1024);
    u::Rng rng(0x57A9);
    auto map = authenticache::mc::randomErrorMap(geom, 700, 20, rng);
    map.plane(690);
    server.enrollRecord(
        srv::DeviceRecord(1, std::move(map), {700}, {690}));

    struct Discard : proto::ReplySink
    {
        void send(const proto::Message &) override {}
    } sink;
    server.startHeartbeat(1, sink);
    for (int i = 0; i < 4; ++i) {
        clock.advance();
        server.tickHeartbeats(sink);
        server.tick();
    }

    u::StatsRegistry registry;
    srv::collectServerStats(server, registry);
    for (const char *stat :
         {"decays", "step_ups", "proactive_remaps", "revocations",
          "unlocks", "heartbeats_clean", "heartbeats_marginal",
          "heartbeats_failed", "heartbeats_active"}) {
        SCOPED_TRACE(stat);
        EXPECT_TRUE(
            registry.getInt("server.trust", stat).has_value());
    }
    EXPECT_EQ(*registry.getInt("server.trust", "heartbeats_failed"),
              2u);
    EXPECT_EQ(*registry.getInt("server.trust", "decays"), 2u);
    EXPECT_EQ(*registry.getInt("server.trust", "step_ups"), 1u);
    EXPECT_EQ(*registry.getInt("server.trust", "heartbeats_active"),
              1u);
    EXPECT_EQ(*registry.getInt("server.trust", "heartbeats_clean"),
              0u);
    EXPECT_EQ(*registry.getInt("server.trust", "revocations"), 0u);

    // Admin revoke + unlock round-trips through the same schema.
    server.revokeDevice(1);
    server.unlockDevice(1);
    u::StatsRegistry after;
    srv::collectServerStats(server, after);
    EXPECT_EQ(*after.getInt("server.trust", "unlocks"), 1u);
    EXPECT_EQ(*after.getInt("server.trust", "heartbeats_active"), 0u);
}
