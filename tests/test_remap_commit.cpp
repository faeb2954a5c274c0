/**
 * @file
 * Tests for the remap two-phase commit with key confirmation: a
 * client that mis-derives the key (helper corrupted / noise beyond
 * correction) must be detected at the confirmation step, leaving both
 * sides on the old key -- the desynchronization hazard the lifetime
 * simulation exposed with the naive single-phase protocol.
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;

namespace {

/** Holds what the server sends instead of delivering it, so a test
 *  can tamper with a message in flight. */
struct Intercept : proto::ReplySink
{
    void send(const proto::Message &m) override { msgs.push_back(m); }
    std::vector<proto::Message> msgs;
};

} // namespace

class RemapCommitFlow : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::ChipConfig cfg;
        cfg.cacheBytes = 1024 * 1024;
        chip = std::make_unique<sim::SimulatedChip>(cfg, 6006);
        machine = std::make_unique<fw::SimulatedMachine>(2);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.remapSecretBits = 16;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 66);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(8, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        link = transport->connect();
        agent = std::make_unique<net::DeviceAgent>(8, *client, *link);
    }

    void run() { net::runExchange(*transport, *agent, pool); }

    /** Start a remap and return its RemapRequest undelivered. */
    proto::RemapRequest
    interceptRemap()
    {
        Intercept tap;
        server->startRemap(8, tap);
        EXPECT_EQ(tap.msgs.size(), 1u);
        auto *req = std::get_if<proto::RemapRequest>(&tap.msgs.at(0));
        EXPECT_NE(req, nullptr);
        return req ? *req : proto::RemapRequest{};
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

TEST_F(RemapCommitFlow, CleanRemapCommitsBothSides)
{
    crypto::Key256 before = client->mapKey();
    server->startRemap(8, link->sink(8));
    run();

    EXPECT_EQ(server->remapsCommitted(), 1u);
    EXPECT_EQ(server->remapsRejected(), 0u);
    EXPECT_NE(client->mapKey(), before);
    EXPECT_EQ(client->mapKey(), server->database().at(8).mapKey());
}

TEST_F(RemapCommitFlow, CorruptedHelperIsRejectedWithoutDesync)
{
    crypto::Key256 before = client->mapKey();
    ASSERT_EQ(server->database().at(8).mapKey(), before);

    // Intercept the RemapRequest and sabotage one helper group so
    // the client derives the wrong secret.
    proto::RemapRequest req = interceptRemap();
    req.helper.flip(0);
    req.helper.flip(1);
    req.helper.flip(2); // Majority of the first 5-bit group flips.
    link->sink(8).send(req);

    run();

    // The confirmation MAC exposed the mismatch: rejected, and both
    // sides still hold the old key.
    EXPECT_EQ(server->remapsCommitted(), 0u);
    EXPECT_EQ(server->remapsRejected(), 1u);
    EXPECT_EQ(client->mapKey(), before);
    EXPECT_EQ(server->database().at(8).mapKey(), before);

    // Authentication still works on the old key.
    agent->requestAuthentication();
    run();
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);

    // And a clean retry succeeds.
    server->startRemap(8, link->sink(8));
    run();
    EXPECT_EQ(server->remapsCommitted(), 1u);
    EXPECT_EQ(client->mapKey(), server->database().at(8).mapKey());
}

TEST_F(RemapCommitFlow, StrayCommitIsIgnored)
{
    crypto::Key256 before = client->mapKey();
    link->sink(8).send(proto::RemapCommit{12345, true});
    agent->pumpAll();
    EXPECT_EQ(client->mapKey(), before);
}

TEST_F(RemapCommitFlow, ForgedConfirmationRejected)
{
    // An attacker who hijacks the ack cannot confirm without the key.
    proto::RemapRequest req = interceptRemap();

    proto::RemapAck forged;
    forged.nonce = req.nonce;
    forged.success = true;
    forged.confirmation.fill(0xAB);
    link->sendMessage(8, forged);
    transport->pumpUntilIdle(pool);

    EXPECT_EQ(server->remapsCommitted(), 0u);
    EXPECT_EQ(server->remapsRejected(), 1u);
}
