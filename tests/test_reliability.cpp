/**
 * @file
 * Unit tests for the session-reliability layer: the deterministic
 * retry policy, the loopback transport's fault primitives, client-side
 * timeout with a clean TimedOut status, server-side session expiry,
 * and the composition of the lockout policy with duplicated frames (a
 * retransmitted rejected response must never count as two failures).
 */

#include <memory>

#include <gtest/gtest.h>

#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"

namespace fw = authenticache::firmware;
namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
using authenticache::util::SimClock;
using authenticache::util::ThreadPool;

namespace {

sim::ChipConfig
smallChip()
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 256 * 1024;
    return cfg;
}

/** AuthRequest for a device nobody enrolled: the server answers it
 *  with an "unknown device" ErrorMsg on the same stream. */
const proto::Message kStrayRequest{proto::AuthRequest{77}};

/** An empty server behind a loopback transport, one frame per pump. */
struct FaultRig
{
    srv::AuthenticationServer server{srv::ServerConfig{}, 1};
    net::LoopbackTransport transport{server.frontEnd(), oneFrame()};
    net::LoopbackTransport::Client *link = transport.connect();
    ThreadPool pool{1};

    static net::TransportConfig
    oneFrame()
    {
        net::TransportConfig cfg;
        cfg.maxBatchFrames = 1;
        return cfg;
    }

    /** Frames the server has decoded so far. */
    std::uint64_t framesIn() const
    {
        return transport.counters().framesIn;
    }
};

} // namespace

TEST(RetryPolicy, ScheduleIsDeterministic)
{
    net::RetryPolicy p;
    for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
        EXPECT_EQ(p.deadlineFor(100, attempt),
                  p.deadlineFor(100, attempt));
    }
}

TEST(RetryPolicy, FirstAttemptHasNoBackoff)
{
    net::RetryPolicy p;
    std::uint64_t d = p.deadlineFor(0, 0);
    EXPECT_GE(d, p.timeoutSteps);
    EXPECT_LE(d, p.timeoutSteps + p.jitterSteps);
}

TEST(RetryPolicy, BackoffIsBoundedByCap)
{
    net::RetryPolicy p;
    for (std::uint32_t attempt = 0; attempt < 100; ++attempt) {
        std::uint64_t d = p.deadlineFor(0, attempt);
        EXPECT_GE(d, p.timeoutSteps);
        EXPECT_LE(d, p.timeoutSteps + p.backoffCapSteps +
                         p.jitterSteps);
    }
    // Deep into the schedule the backoff saturates at the cap.
    std::uint64_t deep = p.deadlineFor(0, 90);
    EXPECT_GE(deep, p.timeoutSteps + p.backoffCapSteps);
}

TEST(ChannelFaults, DropDiscardsExactlyTheTargetFrame)
{
    FaultRig rig;
    rig.transport.setFaultPlan(proto::FaultPlan(1).add(
        {proto::FaultType::Drop, 1, 0}));
    for (int i = 0; i < 3; ++i)
        rig.link->sendMessage(1, kStrayRequest);
    rig.transport.pumpUntilIdle(rig.pool);
    EXPECT_EQ(rig.framesIn(), 2u);
    EXPECT_EQ(rig.link->readMessages().size(), 2u);
    EXPECT_EQ(rig.transport.faultCounters().drops, 1u);
    EXPECT_TRUE(rig.transport.idle());
}

TEST(ChannelFaults, DuplicateDeliversTwice)
{
    // Ordinal 0 is the request, ordinal 1 the server's reply.
    FaultRig rig;
    rig.transport.setFaultPlan(proto::FaultPlan(1).add(
        {proto::FaultType::Duplicate, 1, 0}));
    rig.link->sendMessage(1, kStrayRequest);
    rig.transport.pump(rig.pool);
    auto a = rig.link->receive();
    auto b = rig.link->receive();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(proto::encodeMessage(*a), proto::encodeMessage(*b));
    EXPECT_FALSE(rig.link->receive().has_value());
    EXPECT_EQ(rig.transport.faultCounters().duplicates, 1u);
}

TEST(ChannelFaults, ReorderJumpsTheQueue)
{
    // The second request (stream 2) overtakes the first (stream 1),
    // so its reply comes back first.
    FaultRig rig;
    rig.transport.setFaultPlan(proto::FaultPlan(1).add(
        {proto::FaultType::Reorder, 1, 0}));
    rig.link->sendMessage(1, kStrayRequest);
    rig.link->sendMessage(2, kStrayRequest);
    rig.transport.pumpUntilIdle(rig.pool);
    auto replies = rig.link->readMessages();
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].first, 2u);
    EXPECT_EQ(replies[1].first, 1u);
    EXPECT_EQ(rig.transport.faultCounters().reorders, 1u);
}

TEST(ChannelFaults, DelayHoldsFrameUntilRelease)
{
    SimClock clock;
    FaultRig rig;
    rig.transport.bindClock(&clock);
    rig.transport.setFaultPlan(proto::FaultPlan(1).add(
        {proto::FaultType::Delay, 0, 5}));
    rig.link->sendMessage(1, kStrayRequest);
    rig.transport.pump(rig.pool);
    EXPECT_EQ(rig.framesIn(), 0u);
    EXPECT_FALSE(rig.transport.idle()); // Held, not lost.
    clock.advance(4);
    rig.transport.pump(rig.pool);
    EXPECT_EQ(rig.framesIn(), 0u);
    clock.advance(1);
    rig.transport.pump(rig.pool);
    EXPECT_EQ(rig.framesIn(), 1u);
    EXPECT_EQ(rig.link->readMessages().size(), 1u);
    EXPECT_TRUE(rig.transport.idle());
    EXPECT_EQ(rig.transport.faultCounters().delays, 1u);
}

TEST(ChannelFaults, CorruptionIsSeededAndReplayable)
{
    // Damage the reply (ordinal 1); the client sees it as wire bytes.
    auto corruptOnce = [](std::uint64_t seed) {
        FaultRig rig;
        rig.transport.setFaultPlan(proto::FaultPlan(seed).add(
            {proto::FaultType::Corrupt, 1, 0}));
        rig.link->sendMessage(1, kStrayRequest);
        rig.transport.pump(rig.pool);
        return rig.link->takeRawBytes();
    };
    FaultRig clean;
    clean.link->sendMessage(1, kStrayRequest);
    clean.transport.pump(clean.pool);
    const auto intact = clean.link->takeRawBytes();

    auto one = corruptOnce(42);
    auto two = corruptOnce(42);
    EXPECT_EQ(one, two);               // Same seed: bit-identical damage.
    EXPECT_EQ(one.size(), intact.size());
    EXPECT_NE(one, intact);            // But damage did happen.
    EXPECT_NE(corruptOnce(43), one);   // Different seed, different bits.
}

TEST(ChannelFaults, CorruptRequestIsADecodeErrorNotAConnectionKill)
{
    // The payload is damaged before framing, so the wire frame stays
    // valid: the server answers on the same stream and keeps the
    // connection, where a broken frame would have closed it.
    FaultRig rig;
    rig.transport.setFaultPlan(proto::FaultPlan(7).add(
        {proto::FaultType::Corrupt, 0, 0}));
    rig.link->sendMessage(5, kStrayRequest);
    rig.transport.pumpUntilIdle(rig.pool);

    auto replies = rig.link->readMessages();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].first, 5u);
    const auto *err = std::get_if<proto::ErrorMsg>(&replies[0].second);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->reason.rfind("decode:", 0), 0u) << err->reason;
    EXPECT_EQ(rig.transport.counters().codecErrors, 0u);
    EXPECT_FALSE(rig.link->serverClosed());
    EXPECT_EQ(rig.transport.faultCounters().corruptions, 1u);

    // The connection still serves the next request.
    rig.link->sendMessage(5, kStrayRequest);
    rig.transport.pumpUntilIdle(rig.pool);
    EXPECT_EQ(rig.link->readMessages().size(), 1u);
}

class RetryMachine : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(smallChip(), 31);
        machine = std::make_unique<fw::SimulatedMachine>(4);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 32;
        scfg.verifier.pIntra = 0.08;
        scfg.sessionTimeoutSteps = 40;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 11);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(4, *client, levels,
                       {srv::defaultReservedLevel(*client)});

        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), FaultRig::oneFrame());
        transport->bindClock(&clock);
        server->bindClock(&clock);
        link = transport->connect();
        agent = std::make_unique<net::DeviceAgent>(4, *client, *link);
        agent->bindClock(&clock);
    }

    net::SteppedExchangeResult
    runSteps()
    {
        return net::runExchangeSteps(*server, *transport, *agent, clock,
                                     pool, 400);
    }

    SimClock clock;
    ThreadPool pool{1};
    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    std::unique_ptr<net::LoopbackTransport> transport;
    net::LoopbackTransport::Client *link = nullptr;
    std::unique_ptr<net::DeviceAgent> agent;
};

TEST_F(RetryMachine, ExhaustedRetriesEndWithTimedOut)
{
    // Every AuthRequest attempt is lost: the agent must give up with
    // a clean TimedOut status instead of wedging the exchange.
    proto::FaultPlan plan(9);
    for (std::uint64_t i = 0; i < 8; ++i)
        plan.add({proto::FaultType::Drop, i, 0});
    transport->setFaultPlan(plan);

    agent->requestAuthentication();
    auto result = runSteps();
    EXPECT_TRUE(result.quiesced);
    EXPECT_FALSE(agent->sessionActive());
    ASSERT_TRUE(agent->lastAuthStatus().has_value());
    EXPECT_EQ(*agent->lastAuthStatus(),
              fw::AuthOutcome::Status::TimedOut);
    EXPECT_FALSE(agent->lastDecision().has_value());
    EXPECT_GE(agent->retransmissions(), 1u);
}

TEST_F(RetryMachine, SingleLossRecoversViaRetransmission)
{
    transport->setFaultPlan(proto::FaultPlan(9).add(
        {proto::FaultType::Drop, 0, 0}));
    agent->requestAuthentication();
    auto result = runSteps();
    EXPECT_TRUE(result.quiesced);
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);
    EXPECT_EQ(agent->retransmissions(), 1u);
}

TEST_F(RetryMachine, ServerExpiresAbandonedSessions)
{
    // A request whose device never answers the challenge is garbage
    // collected once its deadline passes -- nothing leaks.
    link->sendMessage(4, proto::AuthRequest{4});
    transport->pump(pool);
    EXPECT_EQ(server->pendingSessions(), 1u);

    clock.advance(39);
    server->tick();
    EXPECT_EQ(server->pendingSessions(), 1u); // Not yet due.

    clock.advance(2);
    server->tick();
    EXPECT_EQ(server->pendingSessions(), 0u);
    EXPECT_EQ(server->sessionsExpired(), 1u);

    // The expired nonce is dead: answering it now is rejected.
    (void)link->receive(); // Discard the challenge.
    proto::ResponseMsg late;
    late.nonce = 0xDEAD;
    late.response = core::Response(32);
    link->sendMessage(4, late);
    transport->pump(pool);
    EXPECT_TRUE(server->reports().empty());
}

class LockoutReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(smallChip(), 31);
        machine = std::make_unique<fw::SimulatedMachine>(4);
        fw::ClientConfig ccfg;
        ccfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, ccfg);
        client->boot();

        srv::ServerConfig scfg;
        scfg.challengeBits = 64;
        scfg.lockoutThreshold = 2;
        server =
            std::make_unique<srv::AuthenticationServer>(scfg, 11);
        auto levels = srv::defaultChallengeLevels(*client, 1);
        server->enroll(4, *client, levels,
                       {srv::defaultReservedLevel(*client)});
        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        link = transport->connect();
    }

    /** Deliver one message to the server and run its batch. */
    void
    send(const proto::Message &m)
    {
        link->sendMessage(4, m);
        transport->pump(pool);
    }

    /** Open a session and build a response that must be rejected. */
    proto::ResponseMsg
    bogusResponse()
    {
        // Drop decisions left over from earlier rounds.
        (void)link->readMessages();
        send(proto::AuthRequest{4});
        auto msg = link->receive();
        EXPECT_TRUE(msg.has_value());
        auto *ch = std::get_if<proto::ChallengeMsg>(&*msg);
        EXPECT_NE(ch, nullptr);
        proto::ResponseMsg bogus;
        bogus.nonce = ch->nonce;
        bogus.response = core::Response(ch->challenge.size());
        for (std::size_t i = 0; i < bogus.response.size(); i += 2)
            bogus.response.flip(i);
        return bogus;
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    ThreadPool pool{1};
    std::unique_ptr<net::LoopbackTransport> transport;
    net::LoopbackTransport::Client *link = nullptr;
};

TEST_F(LockoutReplay, DuplicatedRejectedResponseCountsOnce)
{
    // First rejection counts...
    auto bogus = bogusResponse();
    send(bogus);
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 1u);
    EXPECT_FALSE(server->database().at(4).locked());

    // ...but replaying the identical frame (a retransmission or a
    // network duplicate) is served from the completed cache and must
    // NOT count as a second failure toward the lockout threshold.
    send(bogus);
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 1u);
    EXPECT_FALSE(server->database().at(4).locked());
    EXPECT_EQ(server->sessions().totals().dupCompletions, 1u);
    EXPECT_EQ(server->reports().size(), 1u);

    // A genuinely fresh failure still advances the policy.
    send(bogusResponse());
    EXPECT_EQ(server->database().at(4).consecutiveFailures(), 2u);
    EXPECT_TRUE(server->database().at(4).locked());
}

TEST_F(LockoutReplay, DuplicateChallengeReissueDoesNotBurnPairs)
{
    // Satellite invariant restated at the unit level: a retransmitted
    // AuthRequest never consumes fresh challenge pairs.
    send(proto::AuthRequest{4});
    auto consumedBefore = server->database().at(4).consumedCount(
        server->database().at(4).challengeLevels().front());
    for (int i = 0; i < 5; ++i)
        send(proto::AuthRequest{4});
    EXPECT_EQ(server->database().at(4).consumedCount(
                  server->database().at(4).challengeLevels().front()),
              consumedBefore);
    EXPECT_EQ(server->duplicateRequests(), 5u);
}
