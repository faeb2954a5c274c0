/**
 * @file
 * Tests for error-map combination policies and server enrollment with
 * a pre-captured (combined) map.
 */

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace fw = authenticache::firmware;
namespace net = authenticache::net;
namespace srv = authenticache::server;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(64 * 1024);

core::ErrorMap
mapOf(std::initializer_list<sim::LinePoint> points,
      core::VddMv level = 700)
{
    core::ErrorMap map(kGeom);
    for (const auto &p : points)
        map.plane(level).add(p);
    return map;
}

} // namespace

TEST(CombineMaps, UnionIntersectionMajority)
{
    std::vector<core::ErrorMap> captures{
        mapOf({{1, 0}, {2, 0}, {3, 0}}),
        mapOf({{2, 0}, {3, 0}, {4, 0}}),
        mapOf({{3, 0}, {4, 0}, {5, 0}}),
    };

    auto u = core::combineErrorMaps(captures,
                                    core::CombinePolicy::Union);
    EXPECT_EQ(u.plane(700).errorCount(), 5u); // Lines 1-5.

    auto i = core::combineErrorMaps(
        captures, core::CombinePolicy::Intersection);
    EXPECT_EQ(i.plane(700).errorCount(), 1u); // Only line 3.
    EXPECT_TRUE(i.plane(700).contains({3, 0}));

    auto m = core::combineErrorMaps(captures,
                                    core::CombinePolicy::Majority);
    // Quorum 2 of 3: lines 2, 3, 4.
    EXPECT_EQ(m.plane(700).errorCount(), 3u);
    EXPECT_TRUE(m.plane(700).contains({2, 0}));
    EXPECT_TRUE(m.plane(700).contains({4, 0}));
    EXPECT_FALSE(m.plane(700).contains({1, 0}));
}

TEST(CombineMaps, HandlesDisjointLevels)
{
    // One capture saw level 690, the other did not: for union the
    // plane carries over; for intersection it empties.
    std::vector<core::ErrorMap> captures{mapOf({{1, 1}}, 690),
                                         mapOf({{1, 1}}, 700)};
    auto u = core::combineErrorMaps(captures,
                                    core::CombinePolicy::Union);
    EXPECT_TRUE(u.hasPlane(690));
    EXPECT_TRUE(u.hasPlane(700));
    EXPECT_EQ(u.totalErrors(), 2u);

    auto i = core::combineErrorMaps(
        captures, core::CombinePolicy::Intersection);
    EXPECT_EQ(i.totalErrors(), 0u);
}

TEST(CombineMaps, SingleCaptureIsIdentityForAllPolicies)
{
    Rng rng(1);
    std::vector<core::ErrorMap> one{
        authenticache::mc::randomErrorMap(kGeom, 700, 20, rng)};
    for (auto policy :
         {core::CombinePolicy::Union,
          core::CombinePolicy::Intersection,
          core::CombinePolicy::Majority}) {
        auto combined = core::combineErrorMaps(one, policy);
        EXPECT_EQ(combined, one.front());
    }
}

TEST(CombineMaps, Validation)
{
    EXPECT_THROW(core::combineErrorMaps({},
                                        core::CombinePolicy::Union),
                 std::invalid_argument);

    sim::CacheGeometry other(128 * 1024);
    std::vector<core::ErrorMap> mixed{core::ErrorMap(kGeom),
                                      core::ErrorMap(other)};
    EXPECT_THROW(
        core::combineErrorMaps(mixed, core::CombinePolicy::Union),
        std::invalid_argument);
}

TEST(RobustEnrollment, EnrollWithCombinedMapAuthenticates)
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(cfg, 0xE0B);
    fw::SimulatedMachine machine(2);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(chip, machine, ccfg);
    client.boot();
    auto level = static_cast<core::VddMv>(client.floorMv() + 10.0);

    // Capture nominal and hot, enroll the majority... with two
    // captures majority quorum is 2 = intersection; use union here.
    auto cold = client.captureErrorMap({level}, 8);
    sim::Conditions hot;
    hot.temperatureDeltaC = 20.0;
    chip.setConditions(hot);
    auto warm = client.captureErrorMap({level}, 8);
    chip.setConditions(sim::Conditions::nominal());

    auto combined = core::combineErrorMaps(
        {cold, warm}, core::CombinePolicy::Union);

    srv::ServerConfig scfg;
    scfg.challengeBits = 128;
    scfg.verifier.pIntra = 0.10;
    srv::AuthenticationServer server(scfg, 2);
    server.enrollWithMap(4, combined, client, {level}, {});

    authenticache::util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    net::DeviceAgent agent(4, client, *transport.connect());

    // Authenticates at both ends of the envelope.
    for (double temp : {0.0, 20.0}) {
        sim::Conditions c;
        c.temperatureDeltaC = temp;
        chip.setConditions(c);
        agent.requestAuthentication();
        net::runExchange(transport, agent, pool);
        ASSERT_TRUE(agent.lastDecision().has_value());
        EXPECT_TRUE(agent.lastDecision()->accepted)
            << "at +" << temp << "C, HD "
            << agent.lastDecision()->hammingDistance;
    }
}
