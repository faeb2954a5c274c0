/**
 * @file
 * Tests for the side-channel decoy interleaving (paper Sec 7.2) and
 * the server lockout policy.
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "server/storage.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace proto = authenticache::protocol;
namespace net = authenticache::net;
namespace srv = authenticache::server;
using authenticache::util::Rng;

namespace {

sim::ChipConfig
testChip()
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    return cfg;
}

} // namespace

TEST(Decoys, InflateLineTestsWithoutChangingResponse)
{
    sim::SimulatedChip chip(testChip(), 4242);
    fw::SimulatedMachine machine(2);

    fw::ClientConfig plain_cfg;
    plain_cfg.selfTestAttempts = 8;
    fw::AuthenticacheClient plain(chip, machine, plain_cfg);
    double floor = plain.boot();

    fw::ClientConfig decoy_cfg = plain_cfg;
    decoy_cfg.decoyRatio = 1.0;
    fw::AuthenticacheClient masked(chip, machine, decoy_cfg);
    masked.adoptFloor(floor);

    auto level = static_cast<core::VddMv>(floor + 10.0);
    Rng rng(1);
    auto challenge =
        core::randomChallenge(chip.geometry(), level, 24, rng);

    auto base = plain.authenticate(challenge);
    auto with_decoys = masked.authenticate(challenge);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(with_decoys.ok());

    // The response is semantically unchanged (small persistence
    // noise aside)...
    EXPECT_LE(
        base.response.hammingDistance(with_decoys.response), 3u);
    // ...but the access stream roughly doubles.
    EXPECT_GT(with_decoys.lineTests, base.lineTests * 3 / 2);
    EXPECT_GT(with_decoys.elapsedMs, base.elapsedMs);
}

TEST(Decoys, FractionalRatioHonoredInExpectation)
{
    sim::SimulatedChip chip(testChip(), 4243);
    fw::SimulatedMachine machine(2);
    fw::ClientConfig cfg;
    cfg.selfTestAttempts = 1;
    fw::AuthenticacheClient plain(chip, machine, cfg);
    double floor = plain.boot();

    cfg.decoyRatio = 0.5;
    fw::AuthenticacheClient masked(chip, machine, cfg);
    masked.adoptFloor(floor);

    auto level = static_cast<core::VddMv>(floor + 10.0);
    Rng rng(2);
    auto challenge =
        core::randomChallenge(chip.geometry(), level, 32, rng);
    auto base = plain.authenticate(challenge);
    auto half = masked.authenticate(challenge);
    ASSERT_TRUE(base.ok() && half.ok());

    double ratio = static_cast<double>(half.lineTests) /
                   static_cast<double>(base.lineTests);
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.8);
}

class Lockout : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(testChip(), 5151);
        machine = std::make_unique<fw::SimulatedMachine>(2);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.lockoutThreshold = 3;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 5);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(9, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        link = transport->connect();
        agent = std::make_unique<net::DeviceAgent>(9, *client, *link);
    }

    void run() { net::runExchange(*transport, *agent, pool); }

    /** Run one auth with the response sabotaged to force rejection. */
    void
    failOnce()
    {
        agent->requestAuthentication();
        // Pump manually so we can corrupt the response in flight.
        transport->pump(pool); // Request -> challenge.
        auto msg = link->receive();
        ASSERT_TRUE(msg.has_value());
        auto *ch = std::get_if<proto::ChallengeMsg>(&*msg);
        ASSERT_NE(ch, nullptr);
        proto::ResponseMsg bogus;
        bogus.nonce = ch->nonce;
        bogus.response = core::Response(ch->challenge.size());
        for (std::size_t i = 0; i < bogus.response.size(); i += 2)
            bogus.response.flip(i); // Half the bits wrong.
        link->sendMessage(9, bogus);
        transport->pump(pool);
        agent->pumpAll();
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    authenticache::util::ThreadPool pool{1};
    std::unique_ptr<net::LoopbackTransport> transport;
    net::LoopbackTransport::Client *link = nullptr;
    std::unique_ptr<net::DeviceAgent> agent;
};

TEST_F(Lockout, LocksAfterConsecutiveFailures)
{
    failOnce();
    failOnce();
    EXPECT_FALSE(server->database().at(9).locked());
    failOnce();
    EXPECT_TRUE(server->database().at(9).locked());

    // Further requests are refused outright.
    agent->requestAuthentication();
    run();
    ASSERT_FALSE(agent->errors().empty());
    EXPECT_NE(agent->errors().back().find("device locked"),
              std::string::npos);
}

TEST_F(Lockout, SuccessResetsTheCounter)
{
    failOnce();
    failOnce();
    // Genuine authentication succeeds and clears the streak.
    agent->requestAuthentication();
    run();
    ASSERT_TRUE(agent->lastDecision().has_value());
    ASSERT_TRUE(agent->lastDecision()->accepted);
    EXPECT_EQ(server->database().at(9).consecutiveFailures(), 0u);

    failOnce();
    failOnce();
    EXPECT_FALSE(server->database().at(9).locked());
}

TEST_F(Lockout, AdminUnlockRestoresService)
{
    failOnce();
    failOnce();
    failOnce();
    ASSERT_TRUE(server->database().at(9).locked());

    server->unlockDevice(9);
    EXPECT_FALSE(server->database().at(9).locked());
    agent->requestAuthentication();
    run();
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);
}

TEST_F(Lockout, StatePersistsThroughSnapshot)
{
    failOnce();
    failOnce();
    failOnce();
    ASSERT_TRUE(server->database().at(9).locked());

    auto blob = srv::saveDatabase(server->database());
    auto restored = srv::loadDatabase(blob);
    EXPECT_TRUE(restored.at(9).locked());
    EXPECT_EQ(restored.at(9).consecutiveFailures(), 3u);
}
