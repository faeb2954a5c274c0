/**
 * @file
 * Overload and shed determinism over the loopback transport.
 *
 * The transport's degradation contract is that overload behavior is a
 * *policy*, not an accident of timing: which requests are admitted,
 * which are shed with an Overloaded reject, which connections stall
 * on backpressure, and every counter the transport publishes must be
 * byte-identical across repeated runs and across ServerFrontEnd pool
 * widths (extending test_server_batch's equivalence pattern one layer
 * down the stack). The suite drives the loopback transport past its
 * global in-flight budget and compares full transcripts -- every
 * reply byte every client saw, plus the serialized counters --
 * between seeded runs at 1 and 8 worker threads.
 *
 * The bounded per-connection queue and the global in-flight budget
 * are the one bound on in-process buffering: the backpressure and
 * shed cases below pin it.
 */

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "net/loopback.hpp"
#include "server/server.hpp"
#include "util/stats_registry.hpp"

namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace core = authenticache::core;
namespace srv = authenticache::server;
namespace mc = authenticache::mc;
namespace util = authenticache::util;

namespace {

constexpr std::uint64_t kServerSeed = 0x5EDD;
constexpr std::uint64_t kFirstId = 501;
constexpr core::VddMv kLevel = 700.0;

srv::ServerConfig
serverConfig()
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 8;
    cfg.fuzzyRepetition = 5;
    cfg.verifier.pIntra = 0.08;
    cfg.sessionShards = 4;
    return cfg;
}

/** A server with @p n enrolled devices and a loopback transport. */
struct Rig
{
    srv::ServerConfig cfg;
    srv::AuthenticationServer server;
    net::LoopbackTransport transport;

    Rig(std::size_t n_devices, const net::TransportConfig &tcfg)
        : cfg(serverConfig()), server(cfg, kServerSeed),
          transport(server.frontEnd(), tcfg)
    {
        core::CacheGeometry geom(64 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = kFirstId + i;
            util::Rng mr = util::Rng::forStream(0xD1CE, id);
            server.database().enroll(srv::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, 40, mr),
                {kLevel}, {}));
        }
    }
};

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (auto b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

struct OverloadResult
{
    std::string counters; ///< TransportCounters::serialize().
    std::uint64_t shed = 0;
    std::uint64_t accepted = 0;
    std::uint64_t stalls = 0;
    std::size_t rejectsSeen = 0;
    std::size_t repliesSeen = 0;
};

/**
 * Drive kConns connections, each bursting kPerConn requests, through
 * a transport whose global budget is far below the offered load, then
 * drain and fingerprint everything observable.
 */
OverloadResult
runOverload(unsigned pool_width)
{
    constexpr std::size_t kConns = 6;
    constexpr std::size_t kPerConn = 12;

    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 4;
    tcfg.globalInFlight = 8; // kConns * perConnectionQueue > budget:
                             // the budget, not backpressure, binds.
    tcfg.maxBatchFrames = 16;

    Rig rig(kConns, tcfg);
    util::ThreadPool pool(pool_width);

    std::vector<net::LoopbackTransport::Client *> clients;
    for (std::size_t c = 0; c < kConns; ++c)
        clients.push_back(rig.transport.connect());

    // Every client bursts all its requests up front; stream id is the
    // device id. Requests repeat per device (dedup re-issues), which
    // keeps the server side deterministic regardless of how many of
    // them get through.
    for (std::size_t c = 0; c < kConns; ++c)
        for (std::size_t r = 0; r < kPerConn; ++r)
            clients[c]->sendMessage(
                kFirstId + c,
                proto::Message{proto::AuthRequest{kFirstId + c}});

    rig.transport.pumpUntilIdle(pool);

    OverloadResult out;
    const auto &tally = rig.transport.counters();
    out.counters = tally.serialize();
    out.shed = tally.shed;
    out.accepted = tally.accepted;
    out.stalls = tally.backpressureStalls;

    for (std::size_t c = 0; c < kConns; ++c)
        for (auto &[stream, msg] : clients[c]->readMessages()) {
            if (net::isOverloadedReject(msg))
                ++out.rejectsSeen;
            else
                ++out.repliesSeen;
        }
    return out;
}

/** As runOverload, but fingerprints raw bytes without decoding. */
std::string
rawTranscript(unsigned pool_width, OverloadResult *result = nullptr)
{
    constexpr std::size_t kConns = 6;
    constexpr std::size_t kPerConn = 12;

    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 4;
    tcfg.globalInFlight = 8;
    tcfg.maxBatchFrames = 16;

    Rig rig(kConns, tcfg);
    util::ThreadPool pool(pool_width);

    std::vector<net::LoopbackTransport::Client *> clients;
    for (std::size_t c = 0; c < kConns; ++c)
        clients.push_back(rig.transport.connect());
    for (std::size_t c = 0; c < kConns; ++c)
        for (std::size_t r = 0; r < kPerConn; ++r)
            clients[c]->sendMessage(
                kFirstId + c,
                proto::Message{proto::AuthRequest{kFirstId + c}});

    rig.transport.pumpUntilIdle(pool);

    std::ostringstream ts;
    for (std::size_t c = 0; c < kConns; ++c)
        ts << "conn " << c << ":"
           << hex(clients[c]->takeRawBytes()) << "\n";
    ts << rig.transport.counters().serialize();

    if (result != nullptr) {
        const auto &tally = rig.transport.counters();
        result->shed = tally.shed;
        result->accepted = tally.accepted;
        result->stalls = tally.backpressureStalls;
    }
    return ts.str();
}

} // namespace

TEST(TransportShed, OverloadIsActuallyExercised)
{
    OverloadResult r = runOverload(2);
    // The scenario must genuinely overload the transport, or the
    // determinism comparisons below prove nothing.
    EXPECT_GT(r.shed, 0u) << r.counters;
    EXPECT_GT(r.accepted, 0u) << r.counters;
    EXPECT_GT(r.stalls, 0u) << r.counters;
    EXPECT_GT(r.rejectsSeen, 0u);
    EXPECT_GT(r.repliesSeen, 0u);
    // Every offered request was answered exactly once: a challenge
    // (or dedup re-issue) if admitted, an Overloaded reject if shed.
    EXPECT_EQ(r.rejectsSeen, r.shed);
    EXPECT_EQ(r.repliesSeen, r.accepted);
}

TEST(TransportShed, ByteIdenticalAcrossRepeatedRuns)
{
    std::string first = rawTranscript(2);
    std::string second = rawTranscript(2);
    EXPECT_EQ(first, second);
}

TEST(TransportShed, ByteIdenticalAcrossThreadCounts)
{
    std::string one = rawTranscript(1);
    std::string eight = rawTranscript(8);
    EXPECT_EQ(one, eight);
}

TEST(TransportShed, CountersPublishedToRegistry)
{
    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 4;
    tcfg.globalInFlight = 8;

    Rig rig(2, tcfg);
    util::ThreadPool pool(2);
    auto *client = rig.transport.connect();
    for (int r = 0; r < 20; ++r)
        client->sendMessage(
            kFirstId, proto::Message{proto::AuthRequest{kFirstId}});
    rig.transport.pumpUntilIdle(pool);

    util::StatsRegistry registry;
    rig.transport.transportCore().collectStats(registry);

    const auto &tally = rig.transport.counters();
    EXPECT_EQ(registry.getInt("server.transport", "accepted"),
              std::optional<std::uint64_t>(tally.accepted));
    EXPECT_EQ(registry.getInt("server.transport", "shed"),
              std::optional<std::uint64_t>(tally.shed));
    EXPECT_EQ(registry.getInt("server.transport", "frames_in"),
              std::optional<std::uint64_t>(tally.framesIn));
    EXPECT_EQ(registry.getInt("server.transport", "frames_out"),
              std::optional<std::uint64_t>(tally.framesOut));
    EXPECT_EQ(
        registry.getInt("server.transport", "connections_opened"),
        std::optional<std::uint64_t>(1));
    EXPECT_EQ(registry.getInt("server.transport", "queued"),
              std::optional<std::uint64_t>(0));
}

TEST(TransportShed, BackpressureNeverDropsAdmittedWork)
{
    // With the global budget far above the offered load but tiny
    // per-connection queues, everything stalls through backpressure
    // and *nothing* is shed: every request eventually gets a real
    // reply.
    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 2;
    tcfg.globalInFlight = 4096;

    Rig rig(3, tcfg);
    util::ThreadPool pool(2);
    std::vector<net::LoopbackTransport::Client *> clients;
    for (std::size_t c = 0; c < 3; ++c)
        clients.push_back(rig.transport.connect());
    for (std::size_t c = 0; c < 3; ++c)
        for (int r = 0; r < 25; ++r)
            clients[c]->sendMessage(
                kFirstId + c,
                proto::Message{proto::AuthRequest{kFirstId + c}});

    rig.transport.pumpUntilIdle(pool);

    const auto &tally = rig.transport.counters();
    EXPECT_EQ(tally.shed, 0u) << tally.serialize();
    EXPECT_GT(tally.backpressureStalls, 0u);
    EXPECT_EQ(tally.accepted, 75u);
    std::size_t replies = 0;
    for (auto *c : clients)
        replies += c->readMessages().size();
    EXPECT_EQ(replies, 75u);
}

TEST(TransportShed, RecoveryAfterOverload)
{
    // Once the overload burst drains, the transport admits new work
    // again: shedding is a transient of load, not a latched state.
    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 4;
    tcfg.globalInFlight = 8;

    Rig rig(6, tcfg);
    util::ThreadPool pool(2);
    std::vector<net::LoopbackTransport::Client *> clients;
    for (std::size_t c = 0; c < 6; ++c)
        clients.push_back(rig.transport.connect());
    for (std::size_t c = 0; c < 6; ++c)
        for (int r = 0; r < 12; ++r)
            clients[c]->sendMessage(
                kFirstId + c,
                proto::Message{proto::AuthRequest{kFirstId + c}});
    rig.transport.pumpUntilIdle(pool);
    const std::uint64_t shedBefore = rig.transport.counters().shed;
    ASSERT_GT(shedBefore, 0u);
    for (auto *c : clients)
        c->readMessages();

    // A gentle second wave: one request per connection.
    for (std::size_t c = 0; c < 6; ++c)
        clients[c]->sendMessage(
            kFirstId + c,
            proto::Message{proto::AuthRequest{kFirstId + c}});
    rig.transport.pumpUntilIdle(pool);

    EXPECT_EQ(rig.transport.counters().shed, shedBefore);
    for (auto *c : clients) {
        auto msgs = c->readMessages();
        ASSERT_EQ(msgs.size(), 1u);
        EXPECT_FALSE(net::isOverloadedReject(msgs[0].second));
    }
}

TEST(TransportShed, DrainClosesEverythingCleanly)
{
    net::TransportConfig tcfg;
    Rig rig(2, tcfg);
    util::ThreadPool pool(2);
    auto *a = rig.transport.connect();
    auto *b = rig.transport.connect();
    a->sendMessage(kFirstId,
                   proto::Message{proto::AuthRequest{kFirstId}});
    b->sendMessage(kFirstId + 1,
                   proto::Message{proto::AuthRequest{kFirstId + 1}});

    rig.transport.drain(pool);

    // Admitted work was serviced before the close, and no further
    // connections are accepted.
    EXPECT_EQ(a->readMessages().size(), 1u);
    EXPECT_EQ(b->readMessages().size(), 1u);
    EXPECT_TRUE(a->serverClosed());
    EXPECT_TRUE(b->serverClosed());
    EXPECT_EQ(a->id() + 1, b->id());
    EXPECT_EQ(rig.transport.connect(), nullptr);
    // drain() reaped the server side; the client handles outlive it,
    // and a later pump only skips them.
    a->sendMessage(kFirstId,
                   proto::Message{proto::AuthRequest{kFirstId}});
    EXPECT_EQ(rig.transport.pump(pool), 0u);
    EXPECT_TRUE(rig.transport.idle());
    EXPECT_TRUE(a->readMessages().empty());
    const auto &tally = rig.transport.counters();
    EXPECT_EQ(tally.connectionsClosed, tally.connectionsOpened);
    EXPECT_EQ(tally.droppedOnClose, 0u);
}

TEST(TransportShed, ContinuationReserveProtectsInProgressWork)
{
    // With a continuation reserve, new work (AuthRequest) competes
    // only for the unreserved slice of the budget, while frames that
    // complete an in-progress exchange (ResponseMsg) may fill the
    // budget entirely -- overload sheds new work first. Exercised on
    // a bare TransportCore so admission is observable between
    // ingests, without a batch draining the queues.
    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = 64;
    tcfg.globalInFlight = 8;
    tcfg.continuationReserve = 4;
    Rig rig(1, tcfg);

    net::TransportCore core(rig.server.frontEnd(), tcfg);
    net::TransportCore::Conn &conn = core.open();

    // 10 new requests against an unreserved slice of 4: 4 admitted.
    for (std::uint64_t s = 0; s < 10; ++s)
        core.ingest(conn,
                    net::encodeWireMessage(
                        s, proto::Message{proto::AuthRequest{s}}));
    EXPECT_EQ(core.counters().accepted, 4u);
    EXPECT_EQ(core.counters().shed, 6u);

    // Continuations use the reserve: admitted up to the full budget
    // of 8, shed only beyond it.
    for (std::uint64_t s = 0; s < 6; ++s)
        core.ingest(conn, net::encodeWireMessage(
                              100 + s,
                              proto::Message{proto::ResponseMsg{
                                  s, util::BitVec()}}));
    EXPECT_EQ(core.counters().accepted, 8u);
    EXPECT_EQ(core.counters().shed, 8u);
    EXPECT_EQ(core.globalQueued(), 8u);
}
