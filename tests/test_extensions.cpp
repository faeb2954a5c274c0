/**
 * @file
 * Tests for the extension features: multi-voltage challenges (the
 * paper's Eq 7 with V != V', left as future work in its prototype)
 * and PUF-backed key generation (Sec 7.3).
 */

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "firmware/keygen.hpp"
#include "mc/mapgen.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace net = authenticache::net;
namespace srv = authenticache::server;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(512 * 1024);

srv::DeviceRecord
twoLevelRecord(std::uint64_t id, std::uint64_t seed)
{
    Rng rng(seed);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 30, rng);
    auto more =
        authenticache::mc::randomErrorMap(kGeom, 690, 30, rng);
    for (const auto &e : more.plane(690).errors())
        map.plane(690).add(e);
    return srv::DeviceRecord(id, std::move(map), {700, 690}, {});
}

} // namespace

TEST(MultiLevel, GeneratesMixedEndpoints)
{
    auto record = twoLevelRecord(1, 5);
    srv::ChallengeGenerator gen(Rng(6));
    auto out = gen.generateMultiLevel(record, 128);
    EXPECT_EQ(out.challenge.size(), 128u);

    std::set<core::VddMv> seen;
    std::size_t mixed_bits = 0;
    for (const auto &bit : out.challenge.bits) {
        seen.insert(bit.a.vddMv);
        seen.insert(bit.b.vddMv);
        mixed_bits += bit.a.vddMv != bit.b.vddMv;
    }
    EXPECT_EQ(seen.size(), 2u);
    // ~half the bits should pair different levels.
    EXPECT_GT(mixed_bits, 32u);
    EXPECT_LT(mixed_bits, 96u);
}

TEST(MultiLevel, ExpectedMatchesIdealEvaluation)
{
    auto record = twoLevelRecord(1, 7);
    record.setMapKey(crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("ml"))));
    srv::ChallengeGenerator gen(Rng(8));
    auto out = gen.generateMultiLevel(record, 64);

    core::LogicalRemap remap(record.mapKey(), kGeom);
    auto logical = remap.mapErrorMap(record.physicalMap());
    EXPECT_EQ(core::evaluate(logical, out.challenge), out.expected);
}

TEST(MultiLevel, RetiresMixedPairsBothOrders)
{
    // Identity key: logical lines are physical lines. No endpoint
    // pair is issued twice, in either order.
    auto record = twoLevelRecord(1, 9);
    srv::ChallengeGenerator gen(Rng(10));
    using End = std::pair<core::VddMv, std::uint64_t>;
    std::set<std::pair<End, End>> seen;
    std::uint64_t mixed = 0, same = 0;
    for (int round = 0; round < 32; ++round) {
        for (const auto &bit :
             gen.generateMultiLevel(record, 64).challenge.bits) {
            End a{bit.a.vddMv, kGeom.lineIndex(bit.a.line)};
            End b{bit.b.vddMv, kGeom.lineIndex(bit.b.line)};
            ASSERT_NE(a, b);
            EXPECT_TRUE(seen.emplace(std::min(a, b), std::max(a, b)).second);
            (a.first == b.first ? same : mixed) += 1;
        }
    }
    const std::uint64_t n = kGeom.lines();
    EXPECT_GT(mixed, 0u);
    EXPECT_EQ(record.remainingPairs(700, 690), n * n - mixed);
    EXPECT_EQ(record.remainingPairs(690, 700), n * n - mixed);
    // Same-level picks share the single-level streams.
    EXPECT_EQ(record.consumedCount(700) + record.consumedCount(690), same);
}

TEST(MultiLevel, RequiresTwoLevels)
{
    Rng rng(11);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 20, rng);
    srv::DeviceRecord record(1, std::move(map), {700}, {});
    srv::ChallengeGenerator gen(Rng(12));
    EXPECT_THROW(gen.generateMultiLevel(record, 16),
                 std::invalid_argument);
}

class MultiLevelIntegration : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::ChipConfig cfg;
        cfg.cacheBytes = 1024 * 1024;
        chip = std::make_unique<sim::SimulatedChip>(cfg, 8080);
        machine = std::make_unique<fw::SimulatedMachine>(2);
        fw::ClientConfig client_cfg;
        client_cfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, client_cfg);
        client->boot();
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
};

TEST_F(MultiLevelIntegration, EndToEndAuthentication)
{
    srv::ServerConfig server_cfg;
    server_cfg.challengeBits = 128;
    server_cfg.multiLevelChallenges = true;
    server_cfg.verifier.pIntra = 0.08;
    srv::AuthenticationServer server(server_cfg, 777);

    auto levels = srv::defaultChallengeLevels(*client, 3);
    auto reserved = srv::defaultReservedLevel(*client);
    server.enroll(5, *client, levels, {reserved});

    authenticache::util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    net::DeviceAgent agent(5, *client, *transport.connect());
    agent.requestAuthentication();
    net::runExchange(transport, agent, pool);

    ASSERT_TRUE(agent.lastDecision().has_value())
        << (agent.errors().empty() ? "no decision"
                                   : agent.errors().front());
    EXPECT_TRUE(agent.lastDecision()->accepted);
    const auto &record = server.database().at(5);
    EXPECT_LT(record.remainingPairs(levels[0], levels[1]) +
                  record.remainingPairs(levels[0], levels[2]) +
                  record.remainingPairs(levels[1], levels[2]),
              3 * record.streamDomain(levels[0], levels[1]));
}

class KeygenTest : public MultiLevelIntegration
{
};

TEST_F(KeygenTest, ProvisionAndRegenerate)
{
    fw::PufKeyGenerator keygen(*client);
    auto level = static_cast<core::VddMv>(client->floorMv() + 10.0);

    Rng rng(13);
    auto provisioned = keygen.provision(level, rng);
    EXPECT_EQ(provisioned.slot.challenge.size(),
              keygen.responseBits());

    // Immediate regeneration reproduces the exact key.
    auto key = keygen.regenerate(provisioned.slot);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, provisioned.key);
}

TEST_F(KeygenTest, SurvivesModerateEnvironmentalDrift)
{
    fw::PufKeyGenerator keygen(*client);
    auto level = static_cast<core::VddMv>(client->floorMv() + 10.0);
    Rng rng(17);
    auto provisioned = keygen.provision(level, rng);

    sim::Conditions warm;
    warm.temperatureDeltaC = 10.0;
    chip->setConditions(warm);
    auto key = keygen.regenerate(provisioned.slot);
    chip->setConditions(sim::Conditions::nominal());
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, provisioned.key);
}

TEST_F(KeygenTest, DistinctSlotsDistinctKeys)
{
    fw::PufKeyGenerator keygen(*client);
    auto level = static_cast<core::VddMv>(client->floorMv() + 10.0);
    Rng rng(19);
    auto k1 = keygen.provision(level, rng);
    auto k2 = keygen.provision(level, rng);
    EXPECT_NE(k1.key, k2.key);
}

TEST_F(KeygenTest, WrongDeviceCannotRegenerate)
{
    fw::PufKeyGenerator keygen(*client);
    auto level = static_cast<core::VddMv>(client->floorMv() + 10.0);
    Rng rng(23);
    auto provisioned = keygen.provision(level, rng);

    // A different die, same slot: its response differs in ~half the
    // bits, far beyond BCH correction.
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip other_chip(cfg, 9090);
    fw::SimulatedMachine other_machine(2);
    fw::AuthenticacheClient other(other_chip, other_machine);
    other.boot();
    // Only meaningful if the slot's level is reachable on this die.
    if (other.floorMv() <= level) {
        fw::PufKeyGenerator other_keygen(other);
        auto key = other_keygen.regenerate(provisioned.slot);
        if (key.has_value()) {
            EXPECT_NE(*key, provisioned.key);
        }
    }
}

TEST_F(KeygenTest, AbortSurfacesAsFailure)
{
    fw::PufKeyGenerator keygen(*client);
    Rng rng(29);
    auto bad_level =
        static_cast<core::VddMv>(client->floorMv() - 40.0);
    EXPECT_THROW(keygen.provision(bad_level, rng),
                 std::runtime_error);

    fw::KeySlot bogus;
    bogus.challenge = core::randomChallenge(
        chip->geometry(), bad_level, keygen.responseBits(), rng);
    bogus.helper = authenticache::util::BitVec(keygen.responseBits());
    EXPECT_FALSE(keygen.regenerate(bogus).has_value());
}
