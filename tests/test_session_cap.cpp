/**
 * @file
 * Tests for the pending-session cap under churn: a flood of unanswered
 * authentication requests must not grow server state without bound,
 * evicted sessions must reject late responses and retire their
 * consumed challenge pairs exactly once, and live sessions within the
 * cap must be unaffected. Duplicate requests from one device are
 * idempotent and never inflate the pending set.
 */

#include <memory>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
using authenticache::util::Rng;

class SessionCap : public ::testing::Test
{
  protected:
    static constexpr std::size_t kCap = 8;
    static constexpr std::size_t kBits = 32;

    void
    SetUp() override
    {
        sim::ChipConfig cfg;
        cfg.cacheBytes = 1024 * 1024;
        chip = std::make_unique<sim::SimulatedChip>(cfg, 0xCAB);
        machine = std::make_unique<fw::SimulatedMachine>(2);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = kBits;
        scfg.maxPendingSessions = kCap;
        scfg.verifier.pIntra = 0.08;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 7);
        levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(2, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        link = transport->connect();
    }

    /** Deliver one message on device @p id's stream, as one batch. */
    void
    send(std::uint64_t id, const proto::Message &m)
    {
        link->sendMessage(id, m);
        transport->pump(pool);
    }

    /**
     * Enroll @p count extra devices with synthetic error maps (they
     * never answer; only their AuthRequests matter). Ids from 100.
     */
    void
    enrollFlooders(std::size_t count)
    {
        Rng rng(0xF100D);
        for (std::size_t i = 0; i < count; ++i) {
            auto map = authenticache::mc::randomErrorMap(
                chip->geometry(), levels[0], 40, rng);
            server->database().enroll(srv::DeviceRecord(
                100 + i, std::move(map), levels, {}));
        }
    }

    void
    requestFrom(std::uint64_t device_id)
    {
        send(device_id, proto::AuthRequest{device_id});
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    std::vector<core::VddMv> levels;
    authenticache::util::ThreadPool pool{1};
    std::unique_ptr<net::LoopbackTransport> transport;
    net::LoopbackTransport::Client *link = nullptr;
};

TEST_F(SessionCap, FloodIsBounded)
{
    // 50 distinct devices, none answering: pending state stays at the
    // cap and the overflow is evicted oldest-first.
    enrollFlooders(49);
    requestFrom(2);
    for (std::size_t i = 0; i < 49; ++i) {
        requestFrom(100 + i);
        EXPECT_LE(server->pendingSessions(), kCap);
    }
    EXPECT_LE(server->pendingSessions(), kCap);
    EXPECT_EQ(server->sessionsEvicted(), 42u);
}

TEST_F(SessionCap, DuplicateRequestsDoNotInflatePendingState)
{
    // One device hammering AuthRequest gets the same outstanding
    // challenge re-issued every time: one session, zero evictions,
    // and exactly one challenge's worth of consumed pairs.
    for (int i = 0; i < 50; ++i)
        requestFrom(2);
    EXPECT_EQ(server->pendingSessions(), 1u);
    EXPECT_EQ(server->sessionsEvicted(), 0u);
    EXPECT_EQ(server->duplicateRequests(), 49u);
    EXPECT_EQ(server->database().at(2).consumedCount(levels[0]),
              kBits);

    // All 50 replies carry the identical challenge and nonce.
    std::optional<std::uint64_t> nonce;
    std::size_t replies = 0;
    while (auto msg = link->receive()) {
        auto *ch = std::get_if<proto::ChallengeMsg>(&*msg);
        ASSERT_NE(ch, nullptr);
        if (!nonce)
            nonce = ch->nonce;
        EXPECT_EQ(ch->nonce, *nonce);
        ++replies;
    }
    EXPECT_EQ(replies, 50u);
}

TEST_F(SessionCap, EvictedChallengeRejectsLateResponse)
{
    // Device 2's challenge gets evicted by a flood of other devices;
    // answering it later must fail with "unknown nonce".
    enrollFlooders(20);
    requestFrom(2);
    auto first_msg = link->receive();
    ASSERT_TRUE(first_msg.has_value());
    auto *first_ch = std::get_if<proto::ChallengeMsg>(&*first_msg);
    ASSERT_NE(first_ch, nullptr);

    for (std::size_t i = 0; i < 20; ++i)
        requestFrom(100 + i);
    EXPECT_GE(server->sessionsEvicted(), 1u);

    // Answer the evicted challenge honestly.
    auto outcome = client->authenticate(first_ch->challenge);
    ASSERT_TRUE(outcome.ok());
    proto::ResponseMsg resp;
    resp.nonce = first_ch->nonce;
    resp.response = std::move(outcome.response);
    send(2, resp);

    // No decision was recorded for it.
    for (const auto &report : server->reports())
        EXPECT_NE(report.nonce, first_ch->nonce);
}

TEST_F(SessionCap, EvictionRetiresConsumedPairsExactlyOnce)
{
    // Churn: every generated challenge consumes its pairs exactly
    // once at issue time; eviction neither un-retires nor re-retires
    // them, and a post-eviction request from the same device draws
    // entirely fresh pairs.
    enrollFlooders(30);
    requestFrom(2);
    ASSERT_EQ(server->database().at(2).consumedCount(levels[0]),
              kBits);

    for (std::size_t i = 0; i < 30; ++i)
        requestFrom(100 + i);
    EXPECT_LE(server->pendingSessions(), kCap);
    EXPECT_GE(server->sessionsEvicted(), 1u);

    // Eviction left the consumed ledger untouched.
    std::uint64_t total = 0;
    total += server->database().at(2).consumedCount(levels[0]);
    for (std::size_t i = 0; i < 30; ++i)
        total += server->database()
                     .at(100 + i)
                     .consumedCount(levels[0]);
    EXPECT_EQ(total, 31u * kBits);

    // Device 2's session was evicted, so a new request opens a fresh
    // session with fresh pairs (the old ones stay retired).
    requestFrom(2);
    EXPECT_EQ(server->database().at(2).consumedCount(levels[0]),
              2 * kBits);
}

TEST_F(SessionCap, PromptSessionsUnaffected)
{
    // A device that answers promptly completes normally even while
    // the cap churns.
    net::DeviceAgent agent(2, *client, *transport->connect());
    for (int round = 0; round < 12; ++round) {
        agent.requestAuthentication();
        net::runExchange(*transport, agent, pool);
        ASSERT_TRUE(agent.lastDecision().has_value());
        EXPECT_TRUE(agent.lastDecision()->accepted);
    }
    EXPECT_EQ(server->sessionsEvicted(), 0u);
}
