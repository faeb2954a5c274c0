/**
 * @file
 * Tests for the server components (records, challenge generation,
 * verification) and full client/server protocol integration, including
 * replay rejection, corrupted frames, imposter rejection, and the
 * adaptive remap exchange.
 */

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attack/replay.hpp"
#include "core/crp.hpp"
#include "mc/mapgen.hpp"
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
using authenticache::util::Rng;

namespace {

sim::ChipConfig
testChip()
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    return cfg;
}

const sim::CacheGeometry kGeom(1024 * 1024);

srv::DeviceRecord
makeRecord(std::uint64_t id, std::size_t errors, std::uint64_t seed)
{
    Rng rng(seed);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, errors,
                                                 rng);
    map.plane(690); // Reserved plane (may stay empty in unit tests).
    return srv::DeviceRecord(id, std::move(map), {700}, {690});
}

} // namespace

TEST(DeviceRecord, PairRetirementBothOrders)
{
    // Identity key: logical lines are physical lines. No unordered
    // pair is issued twice, in either order.
    auto record = makeRecord(1, 20, 1);
    srv::ChallengeGenerator gen(Rng(1));
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (int round = 0; round < 64; ++round) {
        for (const auto &bit : gen.generate(record, 700, 64).challenge.bits) {
            auto a = kGeom.lineIndex(bit.a.line);
            auto b = kGeom.lineIndex(bit.b.line);
            ASSERT_NE(a, b);
            EXPECT_TRUE(seen.emplace(std::min(a, b), std::max(a, b)).second);
        }
    }
    EXPECT_EQ(record.consumedCount(700), 64u * 64u);

    // A different level is independent.
    EXPECT_EQ(record.consumedCount(690), 0u);
    gen.generateReserved(record, 690, 16);
    EXPECT_EQ(record.consumedCount(690), 16u);
    EXPECT_EQ(record.consumedCount(700), 64u * 64u);
}

TEST(DeviceRecord, RemainingPairsAccounting)
{
    auto record = makeRecord(1, 20, 2);
    auto total = core::possibleCrps(kGeom.lines());
    EXPECT_EQ(record.remainingPairs(700), total);
    srv::ChallengeGenerator gen(Rng(2));
    gen.generate(record, 700, 1);
    EXPECT_EQ(record.remainingPairs(700), total - 1);
}

TEST(DeviceRecord, RejectsOverlappingLevelRoles)
{
    Rng rng(3);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 10, rng);
    EXPECT_THROW(srv::DeviceRecord(1, map, {700}, {700, 690}),
                 std::invalid_argument);
    // A level listed twice would give one level pair two streams.
    EXPECT_THROW(srv::DeviceRecord(1, map, {700, 690, 700}, {}),
                 std::invalid_argument);
    EXPECT_THROW(srv::DeviceRecord(1, map, {700}, {690, 690}),
                 std::invalid_argument);
}

TEST(Database, EnrollAndLookup)
{
    srv::EnrollmentDatabase db;
    db.enroll(makeRecord(7, 20, 4));
    EXPECT_TRUE(db.contains(7));
    EXPECT_FALSE(db.contains(8));
    EXPECT_EQ(db.at(7).deviceId(), 7u);
    EXPECT_THROW(db.at(8), std::out_of_range);
    EXPECT_THROW(db.enroll(makeRecord(7, 20, 5)),
                 std::invalid_argument);
    EXPECT_EQ(db.size(), 1u);
}

TEST(ChallengeGenerator, GeneratesAndRetires)
{
    auto record = makeRecord(1, 30, 6);
    srv::ChallengeGenerator gen(Rng(7));
    auto out = gen.generate(record, 700, 64);
    EXPECT_EQ(out.challenge.size(), 64u);
    EXPECT_EQ(out.expected.size(), 64u);
    EXPECT_EQ(record.consumedCount(700), 64u);

    // Expected response matches ideal evaluation on the logical map.
    core::LogicalRemap remap(record.mapKey(),
                             record.physicalMap().geometry());
    auto logical = remap.mapErrorMap(record.physicalMap());
    EXPECT_EQ(core::evaluate(logical, out.challenge), out.expected);
}

TEST(ChallengeGenerator, RejectsWrongLevelRole)
{
    auto record = makeRecord(1, 30, 8);
    srv::ChallengeGenerator gen(Rng(9));
    EXPECT_THROW(gen.generate(record, 690, 16),
                 std::invalid_argument); // Reserved, not challenge.
    EXPECT_THROW(gen.generateReserved(record, 700, 16),
                 std::invalid_argument);
    EXPECT_THROW(gen.generate(record, 777, 16),
                 std::invalid_argument); // No such plane/level.
}

TEST(ChallengeGenerator, ReservedUsesIdentityMapping)
{
    Rng rng(10);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 25, rng);
    // Give the reserved plane errors too.
    auto map2 = authenticache::mc::randomErrorMap(kGeom, 690, 25, rng);
    for (const auto &e : map2.plane(690).errors())
        map.plane(690).add(e);

    srv::DeviceRecord record(1, std::move(map), {700}, {690});
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("k")));
    record.setMapKey(key);

    srv::ChallengeGenerator gen(Rng(11));
    auto out = gen.generateReserved(record, 690, 32);
    // Identity mapping: expected equals evaluation on the raw
    // physical map.
    EXPECT_EQ(core::evaluate(record.physicalMap(), out.challenge),
              out.expected);
}

TEST(Verifier, ThresholdAndVerdicts)
{
    srv::Verifier verifier;
    auto threshold = verifier.thresholdFor(128);
    EXPECT_GT(threshold, 0);
    EXPECT_LT(threshold, 64);

    core::Response expected(128);
    core::Response close = expected;
    for (std::int64_t i = 0; i < threshold; ++i)
        close.flip(i);
    EXPECT_TRUE(verifier.verify(expected, close).accepted);

    core::Response far = expected;
    for (std::int64_t i = 0; i <= threshold; ++i)
        far.flip(i);
    EXPECT_FALSE(verifier.verify(expected, far).accepted);
}

TEST(Verifier, LengthMismatchRejected)
{
    srv::Verifier verifier;
    core::Response expected(64);
    core::Response wrong(32);
    EXPECT_FALSE(verifier.verify(expected, wrong).accepted);
}

TEST(VerifierConcurrentCopy, AssignRacingVerifyNeverTearsPolicy)
{
    // Regression for the torn-policy race fixed during the
    // lock-discipline migration: copy/assignment used to read the
    // source's (pInter, pIntra) doubles without the source's
    // cacheMutex, so a verify() racing an operator= could observe half
    // of the old policy and half of the new. Both policies here sit on
    // the same side of the verdicts being checked, so any interleaving
    // must still produce consistent accept/reject results; TSan (this
    // suite matches the CI filter) catches the torn read itself.
    srv::VerifierPolicy strict;
    strict.pIntra = 0.05;
    srv::VerifierPolicy loose;
    loose.pIntra = 0.07;

    srv::Verifier shared(strict);
    const srv::Verifier strictSrc(strict);
    const srv::Verifier looseSrc(loose);

    core::Response expected(128);
    core::Response identical = expected;
    core::Response opposite = expected;
    for (std::size_t i = 0; i < 128; ++i)
        opposite.flip(i);

    std::thread writer([&] {
        for (int i = 0; i < 400; ++i)
            shared = (i % 2 == 0) ? looseSrc : strictSrc;
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r)
        readers.emplace_back([&] {
            for (int i = 0; i < 400; ++i) {
                EXPECT_TRUE(shared.verify(expected, identical).accepted);
                EXPECT_FALSE(shared.verify(expected, opposite).accepted);
                auto p = shared.policy();
                // Never a mix of the two source policies.
                EXPECT_TRUE(p.pIntra == strict.pIntra ||
                            p.pIntra == loose.pIntra);
                EXPECT_EQ(p.pInter, 0.5);
            }
        });
    writer.join();
    for (auto &th : readers)
        th.join();
}

TEST(VerifierConcurrentCopy, ConcurrentCopyConstructionFromLiveSource)
{
    // Copy-construction takes the source's lock; copying from a
    // verifier that is concurrently being reassigned must yield one of
    // the two source policies, never a blend.
    srv::VerifierPolicy a;
    a.pIntra = 0.05;
    srv::VerifierPolicy b;
    b.pIntra = 0.07;
    srv::Verifier source(a);
    const srv::Verifier srcA(a);
    const srv::Verifier srcB(b);

    std::thread writer([&] {
        for (int i = 0; i < 300; ++i)
            source = (i % 2 == 0) ? srcB : srcA;
    });
    std::vector<std::thread> copiers;
    for (int r = 0; r < 3; ++r)
        copiers.emplace_back([&] {
            for (int i = 0; i < 300; ++i) {
                srv::Verifier copy(source);
                auto p = copy.policy();
                EXPECT_TRUE(p.pIntra == a.pIntra ||
                            p.pIntra == b.pIntra);
            }
        });
    writer.join();
    for (auto &th : copiers)
        th.join();
}

/**
 * Full-stack fixture: one genuine device enrolled with a server,
 * talking over the loopback transport.
 */
class Integration : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        chip = std::make_unique<sim::SimulatedChip>(testChip(), 1001);
        machine = std::make_unique<fw::SimulatedMachine>(4);
        fw::ClientConfig client_cfg;
        client_cfg.selfTestAttempts = 8;
        client = std::make_unique<fw::AuthenticacheClient>(
            *chip, *machine, client_cfg);
        client->boot();

        // 128-bit challenges: 64-bit CRPs have a visible false-reject
        // rate (the paper reaches the same conclusion in Sec 6.3).
        srv::ServerConfig server_cfg;
        server_cfg.challengeBits = 128;
        server_cfg.remapSecretBits = 16;
        server_cfg.verifier.pIntra = 0.08;
        server = std::make_unique<srv::AuthenticationServer>(
            server_cfg, 555);

        auto levels = srv::defaultChallengeLevels(*client, 2);
        auto reserved = srv::defaultReservedLevel(*client);
        server->enroll(42, *client, levels, {reserved});

        transport = std::make_unique<net::LoopbackTransport>(
            server->frontEnd(), net::TransportConfig{});
        transport->attachTranscript(&transcript);
        link = transport->connect();
        agent = std::make_unique<net::DeviceAgent>(42, *client, *link);
    }

    void
    authenticateOnce()
    {
        agent->requestAuthentication();
        net::runExchange(*transport, *agent, pool);
    }

    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<fw::SimulatedMachine> machine;
    std::unique_ptr<fw::AuthenticacheClient> client;
    std::unique_ptr<srv::AuthenticationServer> server;
    authenticache::util::ThreadPool pool{1};
    proto::Transcript transcript;
    std::unique_ptr<net::LoopbackTransport> transport;
    net::LoopbackTransport::Client *link = nullptr;
    std::unique_ptr<net::DeviceAgent> agent;
};

TEST_F(Integration, GenuineDeviceAccepted)
{
    authenticateOnce();
    ASSERT_TRUE(agent->lastDecision().has_value())
        << (agent->errors().empty() ? "no decision"
                                    : agent->errors().front());
    EXPECT_TRUE(agent->lastDecision()->accepted);
    ASSERT_EQ(server->reports().size(), 1u);
    EXPECT_TRUE(server->reports()[0].accepted);
    EXPECT_EQ(server->database().at(42).accepted(), 1u);
}

TEST_F(Integration, RepeatedAuthenticationsUseFreshChallenges)
{
    authenticateOnce();
    authenticateOnce();
    authenticateOnce();
    ASSERT_EQ(server->reports().size(), 3u);
    for (const auto &r : server->reports())
        EXPECT_TRUE(r.accepted);
    // 3 x 128 fresh pairs consumed across the challenge levels.
    const auto &record = server->database().at(42);
    std::size_t consumed = 0;
    for (auto level : record.challengeLevels())
        consumed += record.consumedCount(level);
    EXPECT_EQ(consumed, 384u);
}

TEST_F(Integration, UnknownDeviceRejected)
{
    net::DeviceAgent stranger(99, *client, *transport->connect());
    stranger.requestAuthentication();
    net::runExchange(*transport, stranger, pool);
    EXPECT_FALSE(stranger.lastDecision().has_value());
    ASSERT_FALSE(stranger.errors().empty());
    EXPECT_NE(stranger.errors()[0].find("unknown device"),
              std::string::npos);
}

TEST_F(Integration, ImposterChipRejected)
{
    // A different die answering device 42's challenges: the responses
    // are uncorrelated with the enrolled map, so the Hamming distance
    // lands near bits/2, far above the threshold. Give the imposter a
    // slightly lower Vcorr so its calibrated floor sits below the
    // genuine device's challenge levels (otherwise it would simply
    // abort, which is also a rejection but not the one under test).
    sim::ChipConfig imposter_cfg = testChip();
    imposter_cfg.variation.vcorrMeanMv = 700.0;
    sim::SimulatedChip imposter_chip(imposter_cfg, 2002);
    fw::SimulatedMachine imposter_machine(2);
    fw::AuthenticacheClient imposter(imposter_chip, imposter_machine);
    imposter.boot();
    imposter.setMapKey(client->mapKey());

    net::DeviceAgent imposter_agent(42, imposter, *transport->connect());
    imposter_agent.requestAuthentication();
    net::runExchange(*transport, imposter_agent, pool);

    ASSERT_TRUE(imposter_agent.lastDecision().has_value());
    EXPECT_FALSE(imposter_agent.lastDecision()->accepted);
    EXPECT_GT(imposter_agent.lastDecision()->hammingDistance, 16u);
}

TEST_F(Integration, ReplayedResponseNeverGrantsFreshAccess)
{
    authenticateOnce();
    ASSERT_TRUE(agent->lastDecision()->accepted);

    // Replay the captured response frame: the nonce is spent, so the
    // server serves the original decision from its completed cache
    // (idempotent retransmission handling) without re-verifying,
    // re-counting, or logging a fresh report.
    authenticache::attack::ReplayAttacker attacker(transcript);
    auto frame = attacker.lastResponseFrame();
    ASSERT_TRUE(frame.has_value());
    std::size_t reports_before = server->reports().size();
    std::uint64_t accepts_before =
        server->database().at(42).accepted();

    link->sendPayload(42, *frame);
    transport->pumpUntilIdle(pool);

    EXPECT_EQ(server->reports().size(), reports_before);
    EXPECT_EQ(server->database().at(42).accepted(), accepts_before);
    EXPECT_EQ(server->sessions().totals().dupCompletions, 1u);

    // A replay of a nonce the server has never completed still gets
    // a hard error.
    proto::ResponseMsg stray;
    stray.nonce = 0xDEAD;
    stray.response = core::Response(128);
    link->sendMessage(42, stray);
    transport->pumpUntilIdle(pool);
    agent->pumpAll();
    ASSERT_FALSE(agent->errors().empty());
    EXPECT_NE(agent->errors().back().find("unknown nonce"),
              std::string::npos);
}

TEST_F(Integration, CorruptedFrameHandled)
{
    transport->setFaultPlan(proto::FaultPlan().add(
        {proto::FaultType::Corrupt, 0, 0}));
    agent->requestAuthentication(); // This frame gets corrupted.
    net::runExchange(*transport, *agent, pool);
    // The server answered with a decode error; no decision reached.
    EXPECT_FALSE(agent->lastDecision().has_value());
    ASSERT_FALSE(agent->errors().empty());
    EXPECT_NE(agent->errors().back().find("decode"),
              std::string::npos);

    // The system recovers on the next clean exchange.
    authenticateOnce();
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);
}

TEST_F(Integration, RemapRotatesKeyAndAuthStillWorks)
{
    crypto::Key256 before = client->mapKey();
    ASSERT_EQ(server->database().at(42).mapKey(), before);

    server->startRemap(42, link->sink(42));
    net::runExchange(*transport, *agent, pool);

    EXPECT_EQ(server->remapsCommitted(), 1u);
    EXPECT_EQ(agent->remapsProcessed(), 1u);
    crypto::Key256 after = client->mapKey();
    EXPECT_NE(after, before);
    EXPECT_EQ(server->database().at(42).mapKey(), after);

    // Authentication under the rotated key still succeeds.
    authenticateOnce();
    ASSERT_TRUE(agent->lastDecision().has_value());
    EXPECT_TRUE(agent->lastDecision()->accepted);
}

TEST_F(Integration, LevelsHelperValidation)
{
    sim::SimulatedChip fresh(testChip(), 3003);
    fw::SimulatedMachine fresh_machine(2);
    fw::AuthenticacheClient unbooted(fresh, fresh_machine);
    EXPECT_THROW(srv::defaultChallengeLevels(unbooted, 2),
                 std::logic_error);
    EXPECT_THROW(srv::defaultReservedLevel(unbooted),
                 std::logic_error);
}
