/**
 * @file
 * Tests for the continuous-authentication heartbeat subsystem: the
 * trust ledger and its graceful-degradation ladder (step-up ->
 * proactive remap -> forced re-enrollment -> revocation), missed-round
 * scoring, duplicate-proof replay, admin revoke/unlock, and the
 * determinism of drift-driven trust trajectories.
 */

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/drift.hpp"
#include "substrate/drift_injector.hpp"
#include "substrate_test_util.hpp"

namespace fw = authenticache::firmware;
namespace net = authenticache::net;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace sub = authenticache::substrate;
namespace testutil = authenticache::testutil;
namespace util = authenticache::util;

namespace {

/** A full device + server + agent harness over a loopback transport. */
struct HeartbeatRig
{
    std::unique_ptr<sub::FingerprintSubstrate> chip;
    fw::SimulatedMachine machine{4};
    fw::AuthenticacheClient client;
    srv::AuthenticationServer server;
    util::SimClock clock;
    util::ThreadPool pool{1};
    net::LoopbackTransport transport;
    net::LoopbackTransport::Client *link;
    net::DeviceAgent agent;

    static fw::ClientConfig clientConfig()
    {
        fw::ClientConfig cfg;
        cfg.selfTestAttempts = 8;
        return cfg;
    }

    explicit HeartbeatRig(const srv::ServerConfig &cfg,
                          std::uint64_t die_seed = 9,
                          std::uint64_t server_seed = 0x48B1)
        : chip(testutil::makeTestSubstrate(die_seed)),
          client(*chip, machine, clientConfig()),
          server(cfg, server_seed),
          transport(server.frontEnd(), net::TransportConfig{}),
          link(transport.connect()), agent(die_seed, client, *link)
    {
        client.boot();
        auto levels = srv::defaultChallengeLevels(client, 2);
        auto reserved = srv::defaultReservedLevel(client);
        server.enroll(die_seed, client, levels, {reserved});
        server.bindClock(&clock);
        agent.bindClock(&clock);
    }

    /** The sink of the device's stream (server-pushed messages). */
    proto::ReplySink &sink() { return link->sink(agent_id); }

    void pump() { net::runExchange(transport, agent, pool); }

    /** One simulated step: pump, advance, cadence tick, retries. */
    void step(bool pump_agent = true)
    {
        if (pump_agent)
            pump();
        else
            transport.pumpUntilIdle(pool);
        clock.advance(1);
        server.tickHeartbeats(sink());
        server.tick();
        if (pump_agent)
            agent.tick();
    }

    std::uint64_t agent_id = 9;
};

srv::ServerConfig
baseConfig()
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 128;
    cfg.verifier.pIntra = 0.08;
    return cfg;
}

} // namespace

TEST(Heartbeat, CleanSessionHoldsTrustHigh)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    for (int s = 0; s < 40; ++s)
        rig.step();

    // A healthy device at nominal conditions oscillates near the
    // ceiling (an occasional marginal round costs a few points) and
    // never slides down the degradation ladder.
    const auto &record = rig.server.database().at(9);
    EXPECT_GE(record.trustScore(), cfg.trust.stepUpBelow);
    EXPECT_FALSE(record.revoked());
    EXPECT_FALSE(record.reenrollRequired());
    EXPECT_EQ(record.remapBudgetUsed(), 0u);
    EXPECT_GT(rig.server.sessions().heartbeatsClean(), 5u);
    EXPECT_LE(rig.server.sessions().heartbeatsFailed(), 1u);
    EXPECT_EQ(rig.server.sessions().totals().revocations, 0u);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 1u);
    rig.agent.pumpAll(); // Drain any verdict still in flight.
    ASSERT_TRUE(rig.agent.lastTrust().has_value());
    EXPECT_EQ(*rig.agent.lastTrust(), record.trustScore());
    EXPECT_GE(rig.agent.heartbeatsAnswered(), 5u);
}

TEST(Heartbeat, SilentClientDecaysToRevocation)
{
    // Disable the remap/re-enrollment tiers so pure decay reaches the
    // revocation floor: an abandoned (or cloned) session cannot hold
    // trust or burn CRPs forever.
    auto cfg = baseConfig();
    cfg.trust.remapBelow = 0;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    for (int s = 0; s < 60 && rig.server.sessions().totals().revocations == 0;
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.revoked());
    EXPECT_EQ(rig.server.sessions().totals().revocations, 1u);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);
    EXPECT_GT(rig.server.sessions().heartbeatsFailed(), 2u);
    EXPECT_GT(rig.server.sessions().totals().trustDecays, 2u);

    // The queued Revoke reaches the agent once it finally pumps.
    rig.agent.pumpAll();
    EXPECT_TRUE(rig.agent.revoked());

    // A revoked device is refused plain authentication too.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");

    // And a fresh heartbeat session is refused.
    rig.server.startHeartbeat(9, rig.sink());
    rig.agent.pumpAll();
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");
}

TEST(Heartbeat, SilentClientWithRemapTiersForcesReenrollment)
{
    // Under the default policy the remap tier catches a decaying
    // session twice (budget 2) before trust can ever cross the
    // revocation floor, so an unresponsive device lands in forced
    // re-enrollment rather than revocation.
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    for (int s = 0;
         s < 80 && !rig.server.database().at(9).reenrollRequired();
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.reenrollRequired());
    EXPECT_FALSE(record.revoked());
    EXPECT_EQ(record.remapBudgetUsed(), cfg.trust.remapBudget);
    EXPECT_EQ(rig.server.sessions().totals().proactiveRemaps,
              cfg.trust.remapBudget);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);
}

TEST(Heartbeat, AdminUnlockClearsRevocationAndRestoresTrust)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.revokeDevice(9);
    EXPECT_TRUE(rig.server.database().at(9).revoked());
    EXPECT_EQ(rig.server.sessions().totals().revocations, 1u);

    rig.server.unlockDevice(9);
    const auto &record = rig.server.database().at(9);
    EXPECT_FALSE(record.revoked());
    EXPECT_FALSE(record.reenrollRequired());
    EXPECT_EQ(record.trustScore(), cfg.trust.max);
    EXPECT_EQ(rig.server.adminUnlocks(), 1u);

    // And the device authenticates again.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_TRUE(rig.agent.lastDecision().has_value());
    EXPECT_TRUE(rig.agent.lastDecision()->accepted);
}

TEST(Heartbeat, StepUpSessionsUseFullWidthChallenges)
{
    // A session opened below the step-up threshold issues full-width
    // challenges from the first round.
    auto cfg = baseConfig();
    cfg.trust.initial = cfg.trust.stepUpBelow - 1;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());

    auto msg = rig.link->receive();
    ASSERT_TRUE(msg.has_value());
    auto *hb = std::get_if<proto::Heartbeat>(&*msg);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(hb->challenge.size(), cfg.challengeBits);
    EXPECT_EQ(hb->seq, 1u);
}

TEST(Heartbeat, NominalSessionsUseLowCostChallenges)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());

    auto msg = rig.link->receive();
    ASSERT_TRUE(msg.has_value());
    auto *hb = std::get_if<proto::Heartbeat>(&*msg);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(hb->challenge.size(), cfg.trust.heartbeatBits);
    EXPECT_LT(cfg.trust.heartbeatBits, cfg.challengeBits);
}

TEST(Heartbeat, ProactiveRemapFiresAndCompletes)
{
    // Isolate the remap tier: no revocation, a tiny decay per missed
    // round, and an opening trust just above the remap threshold.
    auto cfg = baseConfig();
    cfg.trust.initial = 36;
    cfg.trust.failPenalty = 2;
    cfg.trust.revokeBelow = 0;
    cfg.trust.remapBudget = 1;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());

    // Miss one round: 36 -> 34 < 35 schedules the remap and grants
    // remapRecovery back.
    for (int s = 0;
         s < 20 && rig.server.sessions().totals().proactiveRemaps == 0; ++s)
        rig.step(/*pump_agent=*/false);
    EXPECT_EQ(rig.server.sessions().totals().proactiveRemaps, 1u);
    const auto &record = rig.server.database().at(9);
    EXPECT_EQ(record.remapBudgetUsed(), 1u);
    EXPECT_GE(record.trustScore(), 34u + cfg.trust.remapRecovery -
                                       cfg.trust.failPenalty);

    // The queued RemapRequest completes once the agent pumps.
    for (int s = 0; s < 10; ++s)
        rig.step();
    EXPECT_EQ(rig.agent.remapsProcessed(), 1u);
    EXPECT_EQ(rig.server.remapsCommitted(), 1u);
}

TEST(Heartbeat, BudgetExhaustionForcesReenrollment)
{
    auto cfg = baseConfig();
    cfg.trust.initial = 36;
    cfg.trust.failPenalty = 2;
    cfg.trust.revokeBelow = 0;
    cfg.trust.remapBudget = 0;
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    for (int s = 0; s < 20 &&
                    !rig.server.database().at(9).reenrollRequired();
         ++s)
        rig.step(/*pump_agent=*/false);

    const auto &record = rig.server.database().at(9);
    EXPECT_TRUE(record.reenrollRequired());
    EXPECT_FALSE(record.revoked());
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // Auth and a fresh heartbeat are both refused until re-enrollment.
    rig.agent.pumpAll();
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "re-enrollment required");

    rig.server.startHeartbeat(9, rig.sink());
    rig.agent.pumpAll();
    EXPECT_EQ(rig.agent.errors().back(), "re-enrollment required");
}

TEST(Heartbeat, DuplicateProofReplaysCachedVerdict)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());

    // Answer round 1, capturing the proof frame for replay.
    auto msg = rig.link->receive();
    ASSERT_TRUE(msg.has_value());
    auto *hb = std::get_if<proto::Heartbeat>(&*msg);
    ASSERT_NE(hb, nullptr);
    auto outcome = rig.client.authenticate(hb->challenge);
    ASSERT_TRUE(outcome.ok());
    proto::HeartbeatProof proof;
    proof.nonce = hb->nonce;
    proof.response = outcome.response;
    rig.link->sendMessage(9, proof);
    rig.transport.pumpUntilIdle(rig.pool);
    const std::uint32_t trust_after =
        rig.server.database().at(9).trustScore();

    // The duplicate replays the cached TrustUpdate and never
    // re-scores the ledger.
    rig.link->sendMessage(9, proof);
    rig.transport.pumpUntilIdle(rig.pool);
    EXPECT_EQ(rig.server.database().at(9).trustScore(), trust_after);
    EXPECT_EQ(rig.server.sessions().totals().dupCompletions, 1u);

    auto replay = rig.link->receive(); // Original verdict.
    ASSERT_TRUE(replay.has_value());
    auto dup = rig.link->receive(); // Replayed verdict.
    ASSERT_TRUE(dup.has_value());
    auto *v1 = std::get_if<proto::TrustUpdate>(&*replay);
    auto *v2 = std::get_if<proto::TrustUpdate>(&*dup);
    ASSERT_NE(v1, nullptr);
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(v1->trust, v2->trust);
    EXPECT_EQ(v1->nonce, v2->nonce);
}

TEST(Heartbeat, StopTearsDownSession)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 1u);
    EXPECT_TRUE(rig.server.stopHeartbeat(9));
    EXPECT_FALSE(rig.server.stopHeartbeat(9));
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // After the stop, ticking past the old due time scores nothing.
    for (int s = 0; s < 10; ++s)
        rig.step(/*pump_agent=*/false);
    EXPECT_EQ(rig.server.sessions().heartbeatsFailed(), 0u);
}

namespace {

/** Collects every message the server sends. */
struct RecordingSink : proto::ReplySink
{
    std::vector<proto::Message> sent;
    void send(const proto::Message &m) override { sent.push_back(m); }

    std::size_t count(bool (*pred)(const proto::Message &)) const
    {
        std::size_t n = 0;
        for (const auto &m : sent)
            n += pred(m);
        return n;
    }
};

bool
isBeat(const proto::Message &m)
{
    return std::holds_alternative<proto::Heartbeat>(m);
}

bool
isError(const proto::Message &m)
{
    return std::holds_alternative<proto::ErrorMsg>(m);
}

/**
 * Challenge levels {720, 700} with a plane at 700 only: enrollment
 * accepts it, and every round that draws 720 fails to generate.
 */
srv::DeviceRecord
planelessLevelRecord(std::uint64_t id)
{
    const sim::CacheGeometry geom(64 * 1024);
    util::Rng rng(0x700 + id);
    return srv::DeviceRecord(
        id, authenticache::mc::randomErrorMap(geom, 700, 40, rng),
        {720, 700}, {});
}

/** Silent clients keep their trust, so only generation ends rounds. */
srv::ServerConfig
noDecayConfig()
{
    srv::ServerConfig cfg;
    cfg.sessionShards = 1;
    cfg.trust.failPenalty = 0;
    cfg.trust.periodSteps = 1;
    return cfg;
}

} // namespace

TEST(Heartbeat, StartOnPlanelessLevelTearsDownSession)
{
    srv::AuthenticationServer server(noDecayConfig(), 0x5A1);
    util::SimClock clock;
    server.bindClock(&clock);

    bool tried = false;
    for (std::uint64_t id = 1; id <= 32 && !tried; ++id) {
        server.enrollRecord(planelessLevelRecord(id));
        RecordingSink sink;
        server.startHeartbeat(id, sink);
        ASSERT_EQ(sink.sent.size(), 1u);
        if (isBeat(sink.sent[0])) {
            EXPECT_TRUE(server.stopHeartbeat(id));
            continue; // Drew 700; look for a device that draws 720.
        }
        tried = true;
        EXPECT_NE(std::get<proto::ErrorMsg>(sink.sent[0]).reason.find(
                      "no error map"),
                  std::string::npos);
        EXPECT_EQ(server.sessions().activeHeartbeats(), 0u);

        // No zombie session: later starts are never refused as
        // already active, and one that draws 700 opens a session.
        bool opened = false;
        for (int attempt = 0; attempt < 32 && !opened; ++attempt) {
            RecordingSink again;
            server.startHeartbeat(id, again);
            ASSERT_EQ(again.sent.size(), 1u);
            if (isError(again.sent[0])) {
                EXPECT_EQ(
                    std::get<proto::ErrorMsg>(again.sent[0]).reason.find(
                        "already active"),
                    std::string::npos);
                EXPECT_EQ(server.sessions().activeHeartbeats(), 0u);
            }
            opened = isBeat(again.sent[0]);
        }
        EXPECT_TRUE(opened);
        EXPECT_EQ(server.sessions().activeHeartbeats(), 1u);
    }
    EXPECT_TRUE(tried);
}

TEST(Heartbeat, TickOnPlanelessLevelTearsDownOnlyThatSession)
{
    srv::AuthenticationServer server(noDecayConfig(), 0x5B1);
    util::SimClock clock;
    server.bindClock(&clock);

    // A healthy device in the same (only) shard.
    const std::uint64_t healthy = 100;
    {
        const sim::CacheGeometry geom(64 * 1024);
        util::Rng rng(0x5B2);
        server.enrollRecord(srv::DeviceRecord(
            healthy,
            authenticache::mc::randomErrorMap(geom, 700, 40, rng),
            {700}, {}));
    }
    RecordingSink sink;
    server.startHeartbeat(healthy, sink);

    // A device whose first round draws 700 and so opens.
    std::uint64_t broken = 0;
    for (std::uint64_t id = 1; id <= 32 && broken == 0; ++id) {
        server.enrollRecord(planelessLevelRecord(id));
        server.startHeartbeat(id, sink);
        if (isBeat(sink.sent.back()))
            broken = id;
    }
    ASSERT_NE(broken, 0u);
    ASSERT_EQ(server.sessions().activeHeartbeats(), 2u);

    // Both sessions come due every step; sooner or later the broken
    // one draws 720. That tick must not throw, must end only the
    // broken session with an error, and must still issue the healthy
    // device's round.
    bool torn_down = false;
    for (int step = 0; step < 64 && !torn_down; ++step) {
        clock.advance();
        sink.sent.clear();
        ASSERT_NO_THROW(server.tickHeartbeats(sink));
        if (sink.count(isError) == 0) {
            EXPECT_EQ(sink.count(isBeat), 2u);
            continue;
        }
        torn_down = true;
        EXPECT_EQ(sink.count(isError), 1u);
        EXPECT_EQ(sink.count(isBeat), 1u);
        EXPECT_EQ(server.sessions().activeHeartbeats(), 1u);
    }
    ASSERT_TRUE(torn_down);

    // The healthy session keeps its cadence afterwards.
    for (int step = 0; step < 3; ++step) {
        clock.advance();
        sink.sent.clear();
        server.tickHeartbeats(sink);
        EXPECT_EQ(sink.count(isBeat), 1u);
        EXPECT_EQ(sink.count(isError), 0u);
    }
    EXPECT_FALSE(server.stopHeartbeat(broken));
    EXPECT_TRUE(server.stopHeartbeat(healthy));
}

TEST(Heartbeat, DriftTrajectoryIsDeterministic)
{
    // Two independent rigs with identical seeds and an identical
    // drift schedule must produce byte-identical wire transcripts and
    // identical trust trajectories -- the foundation of the drift
    // sweep's reproducibility gate.
    auto run = [](std::vector<std::uint8_t> &transcript_bytes,
                  std::vector<std::uint32_t> &trust_trajectory) {
        auto cfg = baseConfig();
        HeartbeatRig rig(cfg);
        proto::Transcript transcript;
        rig.transport.attachTranscript(&transcript);

        sim::DriftScheduleConfig dcfg;
        dcfg.rampSteps = 40;
        dcfg.holdSteps = 100;
        dcfg.returnToNominal = false;
        sub::DriftInjector drift(*rig.chip,
                                 sim::DriftSchedule(0xD21F7, 9, dcfg));
        rig.server.startHeartbeat(9, rig.sink());
        for (int s = 0; s < 80; ++s) {
            rig.pump();
            trust_trajectory.push_back(
                rig.server.database().at(9).trustScore());
            rig.clock.advance(1);
            drift.apply(rig.clock.now());
            rig.server.tickHeartbeats(rig.sink());
            rig.server.tick();
            rig.agent.tick();
        }
        for (const auto &entry : transcript.entries())
            transcript_bytes.insert(transcript_bytes.end(),
                                    entry.frame.begin(),
                                    entry.frame.end());
    };

    std::vector<std::uint8_t> bytes_a, bytes_b;
    std::vector<std::uint32_t> trust_a, trust_b;
    run(bytes_a, trust_a);
    run(bytes_b, trust_b);
    EXPECT_EQ(trust_a, trust_b);
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_FALSE(bytes_a.empty());
}

TEST(DriftSchedule, PureAndSeedDeterministic)
{
    sim::DriftScheduleConfig cfg;
    cfg.rampSteps = 10;
    cfg.holdSteps = 5;
    cfg.phaseJitterSteps = 4;

    sim::DriftSchedule a(42, 7, cfg);
    sim::DriftSchedule b(42, 7, cfg);
    EXPECT_EQ(a.phaseSteps(), b.phaseSteps());
    EXPECT_EQ(a.peakScale(), b.peakScale());
    for (std::uint64_t step : {0u, 3u, 9u, 14u, 20u, 100u}) {
        auto ca = a.at(step);
        auto cb = b.at(step);
        EXPECT_EQ(ca.temperatureDeltaC, cb.temperatureDeltaC);
        EXPECT_EQ(ca.agingYears, cb.agingYears);
        EXPECT_EQ(ca.measurementSigmaMv, cb.measurementSigmaMv);
    }

    // Distinct devices draw distinct phase/peak jitter (with a
    // non-degenerate config this collides with tiny probability; the
    // chosen seeds do not collide).
    sim::DriftSchedule c(42, 8, cfg);
    EXPECT_TRUE(a.phaseSteps() != c.phaseSteps() ||
                a.peakScale() != c.peakScale());
}

TEST(DriftSchedule, RampHoldAndReturnShape)
{
    sim::DriftScheduleConfig cfg;
    cfg.peakTemperatureDeltaC = 20.0;
    cfg.peakAgingYears = 1.0;
    cfg.peakSigmaMv = 3.0;
    cfg.rampSteps = 10;
    cfg.holdSteps = 4;
    cfg.phaseJitterSteps = 0; // Deterministic phase for shape checks.
    cfg.peakJitter = 0.0;
    sim::DriftSchedule sched(1, 1, cfg);

    auto at0 = sched.at(0);
    EXPECT_EQ(at0.temperatureDeltaC, 0.0);
    EXPECT_EQ(at0.measurementSigmaMv, 1.0);

    auto mid = sched.at(5);
    EXPECT_GT(mid.temperatureDeltaC, 0.0);
    EXPECT_LT(mid.temperatureDeltaC, 20.0);

    auto peak = sched.at(10);
    EXPECT_DOUBLE_EQ(peak.temperatureDeltaC, 20.0);
    EXPECT_DOUBLE_EQ(peak.agingYears, 1.0);
    EXPECT_DOUBLE_EQ(peak.measurementSigmaMv, 3.0);

    auto held = sched.at(14);
    EXPECT_DOUBLE_EQ(held.temperatureDeltaC, 20.0);

    auto returned = sched.at(24);
    EXPECT_DOUBLE_EQ(returned.temperatureDeltaC, 0.0);
    EXPECT_DOUBLE_EQ(returned.measurementSigmaMv, 1.0);

    // Without returnToNominal the excursion persists.
    cfg.returnToNominal = false;
    sim::DriftSchedule hold(1, 1, cfg);
    EXPECT_DOUBLE_EQ(hold.at(1000).temperatureDeltaC, 20.0);
}

TEST(Heartbeat, RevokeMessageRoundTripsThroughAgent)
{
    auto cfg = baseConfig();
    HeartbeatRig rig(cfg);
    rig.server.startHeartbeat(9, rig.sink());
    rig.pump();
    EXPECT_FALSE(rig.agent.revoked());

    rig.server.revokeDevice(9);
    EXPECT_EQ(rig.server.sessions().activeHeartbeats(), 0u);

    // An admin revocation does not stream a Revoke (the session is
    // torn down server-side); the agent discovers it on its next
    // exchange attempt.
    rig.agent.requestAuthentication();
    rig.pump();
    ASSERT_FALSE(rig.agent.errors().empty());
    EXPECT_EQ(rig.agent.errors().back(), "device revoked");
}
