/**
 * @file
 * Exhaustive single-fault sweep over the canonical
 * enroll -> authenticate -> remap exchange: every fault type at every
 * frame index of the fault-free baseline. The reliability layer's
 * contract is that each faulted run either completes or fails with a
 * clean status -- no hang, no leaked pending session after GC, no
 * double-retired challenge pair, and both sides' logical-map keys
 * stay in sync. The whole sweep is replayed under the same seeds and
 * must produce bit-for-bit identical outcomes, and those outcomes are
 * pinned line for line in a golden table.
 *
 * The exchange runs over net::LoopbackTransport with one frame per
 * pump (TransportConfig::maxBatchFrames = 1), so the server and the
 * agent alternate message by message and the send ordinals the faults
 * address keep their 7-frame meaning.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "substrate_test_util.hpp"

namespace fw = authenticache::firmware;
namespace net = authenticache::net;
namespace testutil = authenticache::testutil;
namespace core = authenticache::core;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
using authenticache::util::SimClock;
using authenticache::util::ThreadPool;

namespace {

constexpr std::uint64_t kChipSeed = 0x5EED;
constexpr std::uint64_t kServerSeed = 777;
constexpr std::uint64_t kDeviceId = 9;
constexpr std::uint64_t kPlanSeed = 0xFA017;
constexpr std::uint64_t kDelaySteps = 8;
constexpr std::uint64_t kSessionTimeout = 40;
constexpr std::uint64_t kMaxSteps = 400;

// The fault-free exchange: AuthRequest(0) Challenge(1) Response(2)
// Decision(3) RemapRequest(4) RemapAck(5) RemapCommit(6).
constexpr std::uint64_t kBaselineFrames = 7;

const char *
frameName(std::uint64_t index)
{
    static const char *names[] = {
        "AuthRequest", "Challenge", "Response",   "Decision",
        "RemapRequest", "RemapAck", "RemapCommit"};
    return index < kBaselineFrames ? names[index] : "?";
}

const char *
faultName(proto::FaultType t)
{
    switch (t) {
      case proto::FaultType::None: return "none";
      case proto::FaultType::Drop: return "drop";
      case proto::FaultType::Duplicate: return "duplicate";
      case proto::FaultType::Reorder: return "reorder";
      case proto::FaultType::Delay: return "delay";
      case proto::FaultType::Corrupt: return "corrupt";
    }
    return "?";
}

srv::ServerConfig
serverConfig()
{
    srv::ServerConfig scfg;
    scfg.challengeBits = 32;
    scfg.remapSecretBits = 8;
    scfg.fuzzyRepetition = 5;
    scfg.verifier.pIntra = 0.08;
    scfg.sessionTimeoutSteps = kSessionTimeout;
    return scfg;
}

/** Enrollment template captured once: error map, floor, levels. */
struct DeviceTemplate
{
    core::ErrorMap map;
    double floorMv;
    std::vector<core::VddMv> levels;
    core::VddMv reserved;
};

DeviceTemplate
captureTemplate()
{
    auto chip = testutil::makeTestSubstrate(kChipSeed);
    fw::SimulatedMachine machine(kDeviceId);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);

    double floor = client.boot();
    auto levels = srv::defaultChallengeLevels(client, 1);
    auto reserved = srv::defaultReservedLevel(client);
    std::vector<core::VddMv> all = levels;
    all.push_back(reserved);
    return DeviceTemplate{client.captureErrorMap(all, 8), floor,
                          std::move(levels), reserved};
}

/** Everything a single faulted run can report, serializable. */
struct RunOutcome
{
    bool quiesced = false;
    std::uint64_t steps = 0;
    std::string authStatus;
    bool accepted = false;
    std::uint64_t remapsCommitted = 0;
    std::uint64_t agentRemapTimeouts = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t dupRequests = 0;
    std::uint64_t dupCompletions = 0;
    std::uint64_t expired = 0;
    std::size_t pendingAfterGc = 0;
    std::size_t consumedAuthPairs = 0;
    std::size_t consumedReservedPairs = 0;
    bool keysInSync = false;

    std::string
    serialize() const
    {
        std::ostringstream os;
        os << "quiesced=" << quiesced << " steps=" << steps
           << " auth=" << authStatus << " accepted=" << accepted
           << " remaps=" << remapsCommitted
           << " remapTimeouts=" << agentRemapTimeouts
           << " retx=" << retransmissions
           << " dupReq=" << dupRequests
           << " dupDone=" << dupCompletions << " expired=" << expired
           << " pending=" << pendingAfterGc
           << " consumedAuth=" << consumedAuthPairs
           << " consumedReserved=" << consumedReservedPairs
           << " keySync=" << keysInSync;
        return os.str();
    }
};

std::string
statusName(const std::optional<fw::AuthOutcome::Status> &s)
{
    if (!s)
        return "InFlight";
    switch (*s) {
      case fw::AuthOutcome::Status::Ok: return "Ok";
      case fw::AuthOutcome::Status::Aborted: return "Aborted";
      case fw::AuthOutcome::Status::TimedOut: return "TimedOut";
    }
    return "?";
}

/**
 * Run the canonical exchange under one fault plan on a fresh device,
 * server, transport, and clock, all rebuilt from the same seeds: the
 * only degree of freedom between runs is the plan itself.
 */
RunOutcome
runFaultedExchange(const DeviceTemplate &tmpl,
                   const proto::FaultPlan &fault_plan,
                   proto::Transcript *tap = nullptr)
{
    auto chip = testutil::makeTestSubstrate(kChipSeed);
    fw::SimulatedMachine machine(kDeviceId);
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);
    client.adoptFloor(tmpl.floorMv);

    srv::AuthenticationServer server(serverConfig(), kServerSeed);
    server.enrollWithMap(kDeviceId, tmpl.map, client, tmpl.levels,
                         {tmpl.reserved});

    SimClock clock;
    ThreadPool pool(1);
    net::TransportConfig tcfg;
    tcfg.maxBatchFrames = 1;
    net::LoopbackTransport transport(server.frontEnd(), tcfg);
    transport.bindClock(&clock);
    transport.setFaultPlan(fault_plan);
    if (tap)
        transport.attachTranscript(tap);
    auto *link = transport.connect();
    server.bindClock(&clock);

    net::DeviceAgent agent(kDeviceId, client, *link);
    agent.bindClock(&clock);

    RunOutcome out;
    agent.requestAuthentication();
    auto auth = net::runExchangeSteps(server, transport, agent, clock,
                                      pool, kMaxSteps);
    server.startRemap(kDeviceId, link->sink(kDeviceId));
    auto remap = net::runExchangeSteps(server, transport, agent, clock,
                                       pool, kMaxSteps);

    out.quiesced = auth.quiesced && remap.quiesced;
    out.steps = auth.steps + remap.steps;
    out.authStatus = statusName(agent.lastAuthStatus());
    out.accepted = agent.lastDecision().has_value() &&
                   agent.lastDecision()->accepted;

    // Whatever the fault did, the session deadline must eventually
    // reclaim every pending session.
    clock.advance(kSessionTimeout + 1);
    server.tick();
    out.pendingAfterGc = server.pendingSessions();

    out.remapsCommitted = server.remapsCommitted();
    out.agentRemapTimeouts = agent.remapsTimedOut();
    out.retransmissions = agent.retransmissions();
    out.dupRequests = server.duplicateRequests();
    out.dupCompletions = server.sessions().totals().dupCompletions;
    out.expired = server.sessionsExpired();

    const auto &record = server.database().at(kDeviceId);
    out.consumedAuthPairs = record.consumedCount(tmpl.levels[0]);
    out.consumedReservedPairs = record.consumedCount(tmpl.reserved);
    out.keysInSync = client.mapKey() == record.mapKey();
    return out;
}

std::vector<std::pair<std::string, RunOutcome>>
runFullSweep(const DeviceTemplate &tmpl)
{
    const proto::FaultType kinds[] = {
        proto::FaultType::Drop, proto::FaultType::Duplicate,
        proto::FaultType::Reorder, proto::FaultType::Delay,
        proto::FaultType::Corrupt};

    std::vector<std::pair<std::string, RunOutcome>> sweep;
    for (auto kind : kinds) {
        for (std::uint64_t frame = 0; frame < kBaselineFrames;
             ++frame) {
            proto::FaultPlan plan(kPlanSeed);
            plan.add({kind, frame, kDelaySteps});
            std::string label = std::string(faultName(kind)) + "@" +
                                frameName(frame);
            sweep.emplace_back(label,
                               runFaultedExchange(tmpl, plan));
        }
    }
    return sweep;
}

/**
 * The sweep's outcomes, recorded when the exchange still ran over a
 * per-message in-process channel; delivery through the batch
 * transport must not change a single field.
 */
const char *const kGoldenSweep[] = {
    "drop@AuthRequest: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@Challenge: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=1 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@Response: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@Decision: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@RemapRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=0 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=1 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@RemapAck: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "drop@RemapCommit: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@AuthRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=1 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@Challenge: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@Response: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@Decision: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@RemapRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@RemapAck: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "duplicate@RemapCommit: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@AuthRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@Challenge: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@Response: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@Decision: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@RemapRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@RemapAck: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "reorder@RemapCommit: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@AuthRequest: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@Challenge: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@Response: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@Decision: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@RemapRequest: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@RemapAck: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "delay@RemapCommit: quiesced=1 steps=8 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@AuthRequest: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@Challenge: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=1 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@Response: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@Decision: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@RemapRequest: quiesced=1 steps=0 auth=Ok accepted=1 "
    "remaps=0 remapTimeouts=0 retx=0 dupReq=0 dupDone=0 expired=1 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@RemapAck: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=0 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
    "corrupt@RemapCommit: quiesced=1 steps=12 auth=Ok accepted=1 "
    "remaps=1 remapTimeouts=0 retx=1 dupReq=0 dupDone=1 expired=0 "
    "pending=0 consumedAuth=32 consumedReserved=40 keySync=1",
};

} // namespace

class FaultSweep : public ::testing::Test
{
  protected:
    using Sweep = std::vector<std::pair<std::string, RunOutcome>>;

    static void
    SetUpTestSuite()
    {
        tmpl = new DeviceTemplate(captureTemplate());
    }

    static void
    TearDownTestSuite()
    {
        delete sweep;
        sweep = nullptr;
        delete tmpl;
        tmpl = nullptr;
    }

    /** One full sweep, run on first use and shared by the checks. */
    static const Sweep &
    fullSweep()
    {
        if (sweep == nullptr)
            sweep = new Sweep(runFullSweep(*tmpl));
        return *sweep;
    }

    static DeviceTemplate *tmpl;
    static Sweep *sweep;
};

DeviceTemplate *FaultSweep::tmpl = nullptr;
FaultSweep::Sweep *FaultSweep::sweep = nullptr;

TEST_F(FaultSweep, BaselineIsSevenFramesAndClean)
{
    proto::Transcript tap;
    auto out =
        runFaultedExchange(*tmpl, proto::FaultPlan(kPlanSeed), &tap);
    EXPECT_TRUE(out.quiesced);
    EXPECT_EQ(out.authStatus, "Ok");
    EXPECT_TRUE(out.accepted);
    EXPECT_EQ(out.remapsCommitted, 1u);
    EXPECT_EQ(out.retransmissions, 0u);
    EXPECT_EQ(out.pendingAfterGc, 0u);
    EXPECT_TRUE(out.keysInSync);
    // The tap still sees the canonical frames (and defines the frame
    // indices the sweep below injects at).
    EXPECT_EQ(tap.entries().size(), kBaselineFrames);
}

TEST_F(FaultSweep, EverySingleFaultCompletesOrFailsClean)
{
    const auto baseline =
        runFaultedExchange(*tmpl, proto::FaultPlan(kPlanSeed));
    ASSERT_TRUE(baseline.quiesced);

    for (const auto &[label, out] : fullSweep()) {
        SCOPED_TRACE(label);
        std::cout << "[sweep] " << label << ": " << out.serialize()
                  << "\n";

        // No hang: the exchange reached quiescence in budget.
        EXPECT_TRUE(out.quiesced);

        // Clean terminal status, never stuck in flight.
        EXPECT_TRUE(out.authStatus == "Ok" ||
                    out.authStatus == "TimedOut");

        // A single fault never defeats authentication: the retry
        // machine always recovers the auth phase.
        EXPECT_EQ(out.authStatus, "Ok");
        EXPECT_TRUE(out.accepted);

        // No leaked session once deadlines have passed.
        EXPECT_EQ(out.pendingAfterGc, 0u);

        // Exactly-once retirement: every run burns exactly the
        // baseline's pair budget, faults never re-burn or double-burn.
        EXPECT_EQ(out.consumedAuthPairs, baseline.consumedAuthPairs);
        EXPECT_EQ(out.consumedReservedPairs,
                  baseline.consumedReservedPairs);

        // Two-phase remap never desyncs the key, even when the
        // exchange itself is abandoned.
        EXPECT_TRUE(out.keysInSync);

        // A remap either commits exactly once or fails cleanly with
        // the server session garbage-collected.
        EXPECT_LE(out.remapsCommitted, 1u);
        if (out.remapsCommitted == 0) {
            EXPECT_GE(out.expired + out.agentRemapTimeouts, 1u);
        }
    }
}

TEST_F(FaultSweep, OutcomesMatchGoldenTable)
{
    const Sweep &got = fullSweep();
    ASSERT_EQ(got.size(), std::size(kGoldenSweep));
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].first + ": " + got[i].second.serialize(),
                  kGoldenSweep[i]);
}

TEST_F(FaultSweep, SweepIsDeterministicAcrossRuns)
{
    const Sweep &first = fullSweep();
    auto second = runFullSweep(*tmpl);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(first[i].first);
        EXPECT_EQ(first[i].first, second[i].first);
        EXPECT_EQ(first[i].second.serialize(),
                  second[i].second.serialize());
    }
}
