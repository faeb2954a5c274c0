/**
 * @file
 * Integration: multiple devices interleaving authentications through
 * one server, each over its own loopback connection (one per client,
 * as a real deployment would have) -- the server's nonce-based
 * session state must keep the exchanges independent, and interleaved
 * remaps must not cross wires.
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace net = authenticache::net;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;

namespace {

struct Device
{
    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    net::LoopbackTransport::Client *link = nullptr;
    std::unique_ptr<net::DeviceAgent> agent;
};

} // namespace

class ConcurrentSessions : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.verifier.pIntra = 0.08;
        server = std::make_unique<srv::AuthenticationServer>(scfg, 4);
        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});

        for (std::uint64_t i = 0; i < 3; ++i) {
            sim::ChipConfig cfg;
            cfg.cacheBytes = 1024 * 1024;
            auto &dev = devices[i];
            dev.chip = std::make_unique<sim::SimulatedChip>(
                cfg, 7000 + i);
            dev.machine = std::make_unique<fw::SimulatedMachine>(2);
            fw::ClientConfig ccfg;
            ccfg.selfTestAttempts = 8;
            dev.client = std::make_unique<fw::AuthenticacheClient>(
                *dev.chip, *dev.machine, ccfg);
            dev.client->boot();
            auto levels =
                srv::defaultChallengeLevels(*dev.client, 1);
            server->enroll(
                i + 1, *dev.client, levels,
                {srv::defaultReservedLevel(*dev.client)});
            dev.link = transport->connect();
            dev.agent = std::make_unique<net::DeviceAgent>(
                i + 1, *dev.client, *dev.link);
        }
    }

    /** Alternate server batches and device turns until idle. */
    void
    pumpEverything()
    {
        bool progress = true;
        while (progress) {
            progress = transport->pump(pool) > 0;
            for (auto &dev : devices)
                progress |= dev.agent->pumpOnce();
        }
    }

    std::unique_ptr<srv::AuthenticationServer> server;
    authenticache::util::ThreadPool pool{1};
    std::unique_ptr<net::LoopbackTransport> transport;
    Device devices[3];
};

TEST_F(ConcurrentSessions, InterleavedAuthenticationsStayIndependent)
{
    // All three devices request before any response is processed.
    for (auto &dev : devices)
        dev.agent->requestAuthentication();

    // Server issues all three challenges first (one batch), then the
    // devices answer in a scrambled order.
    EXPECT_EQ(transport->pump(pool), 3u);
    devices[2].agent->pumpOnce(); // Answers its challenge.
    devices[0].agent->pumpOnce();
    devices[1].agent->pumpOnce();
    pumpEverything();

    for (auto &dev : devices) {
        ASSERT_TRUE(dev.agent->lastDecision().has_value());
        EXPECT_TRUE(dev.agent->lastDecision()->accepted);
    }
    EXPECT_EQ(server->reports().size(), 3u);
}

TEST_F(ConcurrentSessions, RemapAndAuthInterleave)
{
    // Device 1 remaps while devices 2 and 3 authenticate.
    server->startRemap(1, devices[0].link->sink(1));
    devices[1].agent->requestAuthentication();
    devices[2].agent->requestAuthentication();
    pumpEverything();

    EXPECT_EQ(server->remapsCommitted(), 1u);
    ASSERT_TRUE(devices[1].agent->lastDecision().has_value());
    EXPECT_TRUE(devices[1].agent->lastDecision()->accepted);
    ASSERT_TRUE(devices[2].agent->lastDecision().has_value());
    EXPECT_TRUE(devices[2].agent->lastDecision()->accepted);

    // Device 1's rotated key still authenticates.
    devices[0].agent->requestAuthentication();
    net::runExchange(*transport, *devices[0].agent, pool);
    ASSERT_TRUE(devices[0].agent->lastDecision().has_value());
    EXPECT_TRUE(devices[0].agent->lastDecision()->accepted);
}

TEST_F(ConcurrentSessions, CrossDeviceResponseRejected)
{
    // Device 1 requests; device 2 tries to answer device 1's
    // challenge with its own silicon: nonce matches but the response
    // comes from the wrong fingerprint.
    devices[0].agent->requestAuthentication();
    transport->pumpUntilIdle(pool);

    auto msg = devices[0].link->receive();
    ASSERT_TRUE(msg.has_value());
    auto *ch = std::get_if<proto::ChallengeMsg>(&*msg);
    ASSERT_NE(ch, nullptr);

    // Device 2 evaluates device 1's challenge (its floor may differ;
    // abort also counts as a failed hijack).
    auto outcome = devices[1].client->authenticate(ch->challenge);
    if (outcome.ok()) {
        proto::ResponseMsg resp;
        resp.nonce = ch->nonce;
        resp.response = std::move(outcome.response);
        devices[0].link->sendMessage(1, resp);
        transport->pumpUntilIdle(pool);
        devices[0].agent->pumpAll();
        ASSERT_TRUE(devices[0].agent->lastDecision().has_value());
        EXPECT_FALSE(devices[0].agent->lastDecision()->accepted);
    }
}
