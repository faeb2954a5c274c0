/**
 * @file
 * Concurrent-vs-sequential equivalence for the batch front end.
 *
 * The server's contract is that handleBatch produces bit-identical
 * outcomes at any thread count, and that a round delivered as many
 * one-frame batches is the same machine as one delivered whole. A
 * 64-device mixed flood (honest auths, corrupted responses, duplicate
 * requests/responses/acks, garbage frames, unknown devices and
 * nonces, remap exchanges with tampered confirmations, lockouts)
 * enforces it: its complete observable state -- per-device record
 * state, server counters, the report log, and every reply byte --
 * must be identical whether driven one frame per batch, through
 * whole-round batches on one thread, or on eight.
 *
 * Smaller suites cover the per-shard stats surface, a golden of the
 * full stats dump after a scripted mixed flow over the loopback
 * transport, and the per-component log-level overrides.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/remap.hpp"
#include "crypto/fuzzy_extractor.hpp"
#include "firmware/client.hpp"
#include "mc/mapgen.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "substrate/config.hpp"
#include "substrate/registry.hpp"
#include "util/logging.hpp"

namespace core = authenticache::core;
namespace fw = authenticache::firmware;
namespace mc = authenticache::mc;
namespace net = authenticache::net;
namespace sub = authenticache::substrate;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace crypto = authenticache::crypto;
namespace util = authenticache::util;

namespace {

// ---------------------------------------------------------------- //
// Mixed-flood scenario                                             //
// ---------------------------------------------------------------- //

constexpr std::size_t kDevices = 64;
constexpr std::uint64_t kFirstId = 101;
constexpr core::VddMv kLevel = 700.0;
constexpr core::VddMv kReservedLvl = 705.0;
constexpr std::uint64_t kServerSeed = 0xBA7C4;
constexpr std::size_t kMapErrors = 40;

// Behaviour classes, by device id. A device can fall into several;
// precedence is resolved where the frames are built.
bool wantsRemap(std::uint64_t id) { return id % 4 == 0; }
bool liesOnResponse(std::uint64_t id) { return id % 7 == 3; }
bool skipsResponse(std::uint64_t id) { return id % 11 == 5; }
bool duplicatesRequest(std::uint64_t id) { return id % 9 == 4; }
bool duplicatesResponse(std::uint64_t id) { return id % 13 == 2; }
bool tampersAck(std::uint64_t id) { return id % 8 == 0; }
bool duplicatesAck(std::uint64_t id) { return id % 12 == 4; }

/** One server-bound frame, addressed by reply slot. */
struct TestFrame
{
    std::size_t slot;
    std::vector<std::uint8_t> bytes;
};

/** A reply slot: keeps the wire payload of every message sent to it. */
struct Mailbox : proto::ReplySink
{
    void
    send(const proto::Message &m) override
    {
        frames.push_back(proto::encodeMessage(m));
    }

    std::vector<std::vector<std::uint8_t>> frames;
};

/**
 * The flood fixture: one server, one reply slot per device so reply
 * transcripts stay separated, plus a stray slot for frames that
 * belong to no enrolled device.
 */
struct Harness
{
    srv::ServerConfig cfg;
    srv::AuthenticationServer server;
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<Mailbox>> slots;
    std::vector<std::string> transcript;
    std::vector<std::optional<proto::ChallengeMsg>> lastChallenge;
    std::vector<std::optional<proto::RemapRequest>> lastRemap;
    std::size_t stray = 0;

    Harness(const srv::ServerConfig &config, std::size_t n_devices)
        : cfg(config), server(cfg, kServerSeed)
    {
        core::CacheGeometry geom(64 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = kFirstId + i;
            // Per-device map stream: the fixture is reproducible
            // regardless of enrollment order or device count.
            util::Rng mr = util::Rng::forStream(0xD1CE, id);
            core::ErrorMap map =
                mc::randomErrorMap(geom, kLevel, kMapErrors, mr);
            std::vector<core::VddMv> reserved;
            if (wantsRemap(id)) {
                auto &plane = map.plane(kReservedLvl);
                while (plane.errorCount() < kMapErrors)
                    plane.add(geom.pointOf(mr.nextBelow(geom.lines())));
                reserved.push_back(kReservedLvl);
            }
            server.database().enroll(srv::DeviceRecord(
                id, std::move(map), {kLevel}, std::move(reserved)));
            ids.push_back(id);
        }
        stray = ids.size();
        for (std::size_t s = 0; s <= ids.size(); ++s)
            slots.push_back(std::make_unique<Mailbox>());
        transcript.resize(slots.size());
        lastChallenge.resize(ids.size());
        lastRemap.resize(ids.size());
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

/** Pull every client-bound reply; record bytes, track challenges. */
void
drainReplies(Harness &h)
{
    for (std::size_t s = 0; s < h.slots.size(); ++s) {
        for (const auto &frame : std::exchange(h.slots[s]->frames, {})) {
            h.transcript[s] += hex(frame);
            h.transcript[s] += '\n';
            auto msg = proto::decodeMessage(frame);
            if (s >= h.ids.size())
                continue;
            if (auto *c = std::get_if<proto::ChallengeMsg>(&msg))
                h.lastChallenge[s] = *c;
            else if (auto *r = std::get_if<proto::RemapRequest>(&msg))
                h.lastRemap[s] = *r;
        }
    }
}

/** The response an honest, noiseless device would return. */
util::BitVec
honestResponse(const srv::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

/**
 * The ack an honest device derives from a RemapRequest: reproduce the
 * server's key from the reserved-level response plus the helper data,
 * and prove it with the confirmation MAC.
 */
proto::RemapAck
craftAck(const srv::DeviceRecord &rec, const proto::RemapRequest &rr,
         bool tamper)
{
    core::LogicalRemap identity(crypto::Key256::zero(),
                                rec.physicalMap().geometry());
    auto response =
        core::evaluate(identity.mapErrorMap(rec.physicalMap()),
                       rr.challenge);
    crypto::FuzzyExtractor extractor(rr.repetition);
    auto key = extractor.reproduce(response, rr.helper);

    proto::RemapAck ack;
    ack.nonce = rr.nonce;
    ack.success = true;
    ack.confirmation = crypto::keyConfirmation(key, rr.nonce);
    if (tamper)
        ack.confirmation[0] ^= 0xFF;
    return ack;
}

/** A driver delivers one round of frames to the server. */
using Driver =
    std::function<void(Harness &, const std::vector<TestFrame> &)>;

/** Sequential reference: every frame is a one-frame batch. */
void
driveSequential(Harness &h, const std::vector<TestFrame> &frames)
{
    util::ThreadPool inline_pool(1);
    for (const auto &f : frames) {
        srv::Frame one{f.bytes, h.slots[f.slot].get()};
        h.server.handleBatch(std::span<srv::Frame>(&one, 1),
                             inline_pool);
    }
}

/** Batch driver at a fixed pool width. */
Driver
batchDriver(std::shared_ptr<util::ThreadPool> pool)
{
    return [pool](Harness &h, const std::vector<TestFrame> &frames) {
        std::vector<srv::Frame> batch;
        batch.reserve(frames.size());
        for (const auto &f : frames)
            batch.push_back(srv::Frame{f.bytes, h.slots[f.slot].get()});
        h.server.handleBatch(batch, *pool);
    };
}

std::vector<std::uint8_t>
garbageFrame()
{
    return {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
}

srv::ServerConfig
floodConfig(unsigned shards)
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 8;
    cfg.fuzzyRepetition = 5;
    cfg.verifier.pIntra = 0.08;
    cfg.lockoutThreshold = 2;
    cfg.completedCacheSize = 64;
    cfg.sessionShards = shards;
    return cfg;
}

/**
 * Everything an observer can see after the flood: per-device record
 * state (including the rotated map keys), aggregate counters, the
 * completed-auth report log, and every reply byte each endpoint
 * received, in order.
 */
std::string
fingerprint(const Harness &h, bool include_wire = true)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        const auto &rec = h.server.database().at(h.ids[i]);
        os << "dev " << h.ids[i] << ": acc=" << rec.accepted()
           << " rej=" << rec.rejected()
           << " locked=" << rec.locked()
           << " authPairs=" << rec.consumedCount(kLevel)
           << " reservedPairs=" << rec.consumedCount(kReservedLvl)
           << " key=";
        for (auto b : rec.mapKey().bytes)
            os << std::hex << int(b) << std::dec;
        os << "\n";
    }
    os << "pending=" << h.server.pendingSessions()
       << " evicted=" << h.server.sessionsEvicted()
       << " expired=" << h.server.sessionsExpired()
       << " dupReq=" << h.server.duplicateRequests()
       << " dupDone=" << h.server.sessions().totals().dupCompletions
       << " remapsOk=" << h.server.remapsCommitted()
       << " remapsBad=" << h.server.remapsRejected()
       << " lockouts=" << h.server.sessions().totals().lockouts << "\n";
    for (const auto &r : h.server.reports()) {
        os << "report dev=" << r.deviceId;
        // Nonces tag the owning shard in their low bits, so they (and
        // the raw reply bytes that carry them) are only comparable
        // between servers with the same shard count.
        if (include_wire)
            os << " nonce=" << r.nonce;
        os << " acc=" << r.accepted << " hd=" << r.hammingDistance
           << " thr=" << r.threshold << "\n";
    }
    if (include_wire)
        for (std::size_t s = 0; s < h.transcript.size(); ++s)
            os << "slot " << s << ":\n" << h.transcript[s];
    return os.str();
}

/**
 * Run the whole mixed flood under one driver and return the
 * fingerprint. Six rounds: requests (+noise), responses (+lies,
 * duplicates, silence), remap acks (+tampering), a second
 * request/response pass that locks the repeat liars, and a final
 * request round probing the locked devices.
 */
std::string
runFlood(const Driver &drive, unsigned shards,
         bool include_wire = true)
{
    Harness h(floodConfig(shards), kDevices);
    auto frameFor = [&](std::size_t slot, const proto::Message &m) {
        return TestFrame{slot, proto::encodeMessage(m)};
    };

    // Round 1: everyone requests; the stray slot injects garbage, an
    // unknown device, an unknown nonce, an out-of-phase message, and
    // a client-side ErrorMsg (consumed without a reply).
    std::vector<TestFrame> round;
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    round.push_back(frameFor(h.stray, proto::AuthRequest{9999}));
    round.push_back(TestFrame{h.stray, garbageFrame()});
    round.push_back(frameFor(
        h.stray, proto::ResponseMsg{0xABCDEF12, util::BitVec()}));
    round.push_back(frameFor(h.stray, proto::AuthDecision{}));
    round.push_back(frameFor(h.stray, proto::ErrorMsg{"client woe"}));
    drive(h, round);
    drainReplies(h);

    // Round 2: duplicate requests land first (their sessions are
    // still open), then responses -- honest, corrupted, duplicated,
    // or withheld (a garbage frame in place of the answer).
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        if (duplicatesRequest(h.ids[i]))
            round.push_back(
                frameFor(i, proto::AuthRequest{h.ids[i]}));
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        if (skipsResponse(id)) {
            round.push_back(TestFrame{i, garbageFrame()});
            continue;
        }
        const auto &ch = *h.lastChallenge[i];
        auto resp =
            honestResponse(h.server.database().at(id), ch.challenge);
        if (liesOnResponse(id))
            for (std::size_t b = 0; b < 16 && b < resp.size(); ++b)
                resp.flip(b);
        auto frame =
            frameFor(i, proto::ResponseMsg{ch.nonce, resp});
        round.push_back(frame);
        if (duplicatesResponse(id))
            round.push_back(frame);
    }
    drive(h, round);
    drainReplies(h);

    // Round 3: the server initiates remaps; clients ack honestly,
    // with a tampered confirmation, or twice.
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        if (wantsRemap(h.ids[i]))
            h.server.startRemap(h.ids[i], *h.slots[i]);
    drainReplies(h);
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        if (!wantsRemap(id) || !h.lastRemap[i])
            continue;
        auto ack = craftAck(h.server.database().at(id),
                            *h.lastRemap[i], tampersAck(id));
        auto frame = frameFor(i, ack);
        round.push_back(frame);
        if (duplicatesAck(id))
            round.push_back(frame);
    }
    drive(h, round);
    drainReplies(h);

    // Round 4: a second request wave. Devices that withheld their
    // round-2 answer still hold an open session, so this is a dedup
    // re-issue for them and a fresh challenge for everyone else.
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    drive(h, round);
    drainReplies(h);

    // Round 5: second response wave. Repeat liars hit the lockout
    // threshold here; everyone else authenticates (under the rotated
    // key where a remap committed).
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i) {
        std::uint64_t id = h.ids[i];
        const auto &ch = *h.lastChallenge[i];
        auto resp =
            honestResponse(h.server.database().at(id), ch.challenge);
        if (liesOnResponse(id))
            for (std::size_t b = 0; b < 16 && b < resp.size(); ++b)
                resp.flip(b);
        round.push_back(
            frameFor(i, proto::ResponseMsg{ch.nonce, resp}));
    }
    round.push_back(frameFor(
        h.stray, proto::ResponseMsg{0x13572468, util::BitVec()}));
    drive(h, round);
    drainReplies(h);

    // Round 6: probe every device again; locked ones get rejected at
    // the request stage.
    round.clear();
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(
            frameFor(i, proto::AuthRequest{h.ids[i]}));
    drive(h, round);
    drainReplies(h);

    return fingerprint(h, include_wire);
}

} // namespace

// ---------------------------------------------------------------- //
// Tests                                                            //
// ---------------------------------------------------------------- //

TEST(BatchEquivalence, MixedFloodIdenticalAcrossDrivers)
{
    std::string sequential = runFlood(driveSequential, 8);
    std::string batch1 =
        runFlood(batchDriver(std::make_shared<util::ThreadPool>(1)), 8);
    std::string batch8 =
        runFlood(batchDriver(std::make_shared<util::ThreadPool>(8)), 8);

    EXPECT_EQ(sequential, batch1);
    EXPECT_EQ(sequential, batch8);

    // The scenario must actually exercise the interesting paths;
    // otherwise the equality above proves nothing.
    EXPECT_NE(sequential.find(" locked=1"), std::string::npos);
    EXPECT_NE(sequential.find("remapsOk="), std::string::npos);
    EXPECT_EQ(sequential.find("remapsOk=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" dupReq=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" dupDone=0 "), std::string::npos);
    EXPECT_EQ(sequential.find(" remapsBad=0 "), std::string::npos);
    EXPECT_EQ(sequential.find("lockouts=0"), std::string::npos);
}

TEST(BatchEquivalence, ShardCountInvariantToFingerprint)
{
    // Shard layout is an implementation detail: every outcome --
    // per-device record state, rotated keys, counters, reports --
    // must not depend on it. (Raw nonce bytes do, by design: the
    // shard index lives in a nonce's low bits, so the wire transcript
    // is excluded from this comparison.)
    auto pool = std::make_shared<util::ThreadPool>(4);
    std::string oneShard =
        runFlood(batchDriver(pool), 1, /*include_wire=*/false);
    std::string eightShards =
        runFlood(batchDriver(pool), 8, /*include_wire=*/false);
    EXPECT_EQ(oneShard, eightShards);
}

TEST(PerShardStats, CountersSurfaceInRegistry)
{
    Harness h(floodConfig(4), 16);
    util::ThreadPool pool(2);
    auto drive = batchDriver(std::make_shared<util::ThreadPool>(2));

    // One request wave, duplicated wholesale: every device scores a
    // dedup hit on its shard.
    std::vector<TestFrame> round;
    for (std::size_t i = 0; i < h.ids.size(); ++i)
        round.push_back(TestFrame{
            i, proto::encodeMessage(proto::AuthRequest{h.ids[i]})});
    drive(h, round);
    drive(h, round);
    drainReplies(h);

    util::StatsRegistry registry;
    srv::collectServerStats(h.server, registry);

    ASSERT_EQ(registry.getInt("server", "session_shards"),
              std::optional<std::uint64_t>(4));
    std::uint64_t active = 0;
    std::uint64_t dedup = 0;
    for (unsigned k = 0; k < 4; ++k) {
        std::string shard = "server.shard" + std::to_string(k);
        auto a = registry.getInt(shard, "sessions_active");
        auto d = registry.getInt(shard, "dedup_hits");
        ASSERT_TRUE(a.has_value()) << shard;
        ASSERT_TRUE(d.has_value()) << shard;
        ASSERT_TRUE(
            registry.getInt(shard, "replay_cache_hits").has_value());
        ASSERT_TRUE(
            registry.getInt(shard, "gc_evictions").has_value());
        ASSERT_TRUE(
            registry.getInt(shard, "cap_evictions").has_value());
        ASSERT_TRUE(registry.getInt(shard, "lockouts").has_value());
        active += *a;
        dedup += *d;
    }
    EXPECT_EQ(active, h.server.pendingSessions());
    EXPECT_EQ(dedup, h.server.duplicateRequests());
    EXPECT_EQ(dedup, h.ids.size());
}

TEST(PerShardStats, DevicesSpreadAcrossShards)
{
    Harness h(floodConfig(8), kDevices);
    std::vector<bool> used(h.server.sessions().shardCount(), false);
    for (auto id : h.ids) {
        unsigned idx = h.server.sessions().shardIndexForDevice(id);
        ASSERT_LT(idx, used.size());
        used[idx] = true;
    }
    // 64 ids over 8 shards: a routing bug that pins everything to
    // one shard would leave most of these false.
    for (std::size_t k = 0; k < used.size(); ++k)
        EXPECT_TRUE(used[k]) << "shard " << k << " unused";
}

TEST(SessionManagerTest, ShardCountRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Harness(floodConfig(1), 1)
                  .server.sessions()
                  .shardCount(),
              1u);
    EXPECT_EQ(Harness(floodConfig(3), 1)
                  .server.sessions()
                  .shardCount(),
              4u);
    EXPECT_EQ(Harness(floodConfig(8), 1)
                  .server.sessions()
                  .shardCount(),
              8u);
}

TEST(ComponentLogging, OverridesAndPrefixFallback)
{
    util::clearComponentLogLevels();
    util::setLogLevel(util::LogLevel::Warn);

    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "server"));
    util::setLogLevel("server", util::LogLevel::Debug);
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Debug, "server"));

    // Dotted children inherit the nearest configured prefix.
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Debug, "server.sessions"));
    util::setLogLevel("server.sessions", util::LogLevel::Off);
    EXPECT_FALSE(
        util::logEnabled(util::LogLevel::Error, "server.sessions"));
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Debug, "server.auth"));

    // Unrelated components still follow the global level.
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "mc"));
    EXPECT_TRUE(util::logEnabled(util::LogLevel::Warn, "mc"));

    util::clearComponentLogLevels();
    EXPECT_FALSE(util::logEnabled(util::LogLevel::Debug, "server"));
    EXPECT_TRUE(
        util::logEnabled(util::LogLevel::Error, "server.sessions"));
}

TEST(ComponentLogging, QueryReportsEffectiveLevel)
{
    util::clearComponentLogLevels();
    util::setLogLevel(util::LogLevel::Warn);
    EXPECT_EQ(util::logLevel("server"), util::LogLevel::Warn);
    util::setLogLevel("server", util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("server"), util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("server.remap"), util::LogLevel::Info);
    EXPECT_EQ(util::logLevel("firmware"), util::LogLevel::Warn);
    util::clearComponentLogLevels();
}

// ---------------------------------------------------------------- //
// Stats golden                                                     //
// ---------------------------------------------------------------- //

namespace {

/** One real device on its own loopback connection. */
struct GoldenDevice
{
    std::uint64_t id;
    std::unique_ptr<sub::FingerprintSubstrate> chip;
    fw::SimulatedMachine machine{4};
    fw::AuthenticacheClient client;
    net::LoopbackTransport::Client *link;
    net::DeviceAgent agent;

    static fw::ClientConfig clientConfig()
    {
        fw::ClientConfig cfg;
        cfg.selfTestAttempts = 8;
        return cfg;
    }

    /** Pinned to sram_vmin: the golden must not follow
     *  AUTHENTICACHE_PLATFORM. */
    static sub::PlatformConfig platform()
    {
        sub::PlatformConfig cfg;
        cfg.cacheBytes = 64 * 1024;
        return cfg;
    }

    GoldenDevice(std::uint64_t device_id,
                 srv::AuthenticationServer &server,
                 net::LoopbackTransport &transport,
                 const util::SimClock &clock)
        : id(device_id), chip(sub::makeSubstrate(platform(), id)),
          client(*chip, machine, clientConfig()),
          link(transport.connect()), agent(id, client, *link)
    {
        client.boot();
        server.enroll(id, client, srv::defaultChallengeLevels(client, 2),
                      {srv::defaultReservedLevel(client)});
        agent.bindClock(&clock);
    }
};

/**
 * A scripted mixed flow over one LoopbackTransport -- accepted and
 * rejected auths, a replayed response, a lockout, a remap commit, an
 * expired session, a duplicate request and a shed frame, heartbeats
 * with a step-up, admin revoke/unlock/remove -- rendered as the full
 * StatsRegistry dump of the server and the transport.
 */
std::string
mixedFlowStats(std::size_t threads)
{
    srv::ServerConfig cfg;
    cfg.verifier.pIntra = 0.08;
    cfg.lockoutThreshold = 2;
    cfg.sessionShards = 2;
    cfg.sessionTimeoutSteps = 8;
    srv::AuthenticationServer server(cfg, 0x57A75);
    util::SimClock clock;
    server.bindClock(&clock);
    util::ThreadPool pool(threads);
    net::TransportConfig tcfg;
    tcfg.globalInFlight = 2; // Three frames in one pump: one is shed.
    net::LoopbackTransport transport(server.frontEnd(), tcfg);

    GoldenDevice a(11, server, transport, clock);
    GoldenDevice b(14, server, transport, clock);
    GoldenDevice c(15, server, transport, clock);
    net::LoopbackTransport::Client *rogue = transport.connect();

    // Rogue-side exchange helper: pump, then read every reply.
    auto exchange = [&] {
        transport.pumpUntilIdle(pool);
        return rogue->readMessages();
    };
    // One heartbeat-cadence step; a silent device misses its round.
    auto step = [&](GoldenDevice &dev, bool answer) {
        if (answer)
            net::runExchange(transport, dev.agent, pool);
        else
            transport.pumpUntilIdle(pool);
        clock.advance(1);
        server.tickHeartbeats(dev.link->sink(dev.id));
        server.tick();
    };

    // Accepted auth, then a committed remap.
    a.agent.requestAuthentication();
    net::runExchange(transport, a.agent, pool);
    server.startRemap(11, a.link->sink(11));
    net::runExchange(transport, a.agent, pool);

    // Two rejected auths lock device 14; the second is replayed once.
    for (int round = 0; round < 2; ++round) {
        rogue->sendMessage(14, proto::AuthRequest{14});
        auto replies = exchange();
        const auto &ch = std::get<proto::ChallengeMsg>(replies.at(0).second);
        util::BitVec wrong =
            honestResponse(server.database().at(14), ch.challenge);
        for (std::size_t i = 0; i < wrong.size(); ++i)
            wrong.flip(i);
        proto::ResponseMsg resp{ch.nonce, wrong};
        rogue->sendMessage(14, resp);
        if (round == 1)
            rogue->sendMessage(14, resp);
        exchange();
    }
    rogue->sendMessage(14, proto::AuthRequest{14});
    exchange(); // "device locked"

    // An unanswered challenge expires.
    rogue->sendMessage(15, proto::AuthRequest{15});
    exchange();
    clock.advance(cfg.sessionTimeoutSteps + 1);
    server.tick();

    // Three requests in one pump: one opens, one is a duplicate, one
    // is shed by the global in-flight budget.
    for (std::uint64_t stream = 100; stream < 103; ++stream)
        rogue->sendMessage(stream, proto::AuthRequest{15});
    exchange();

    // Heartbeats: clean rounds, missed rounds down to a step-up, then
    // the step-up round answered.
    server.startHeartbeat(11, a.link->sink(11));
    for (int s = 0; s < 12; ++s)
        step(a, true);
    for (int s = 0; s < 8; ++s)
        step(a, false);
    for (int s = 0; s < 8; ++s)
        step(a, true);

    // Admin actions over live heartbeat sessions and refusals.
    server.startHeartbeat(15, c.link->sink(15));
    step(c, true);
    server.revokeDevice(15);
    server.startHeartbeat(15, c.link->sink(15)); // "device revoked"
    server.startHeartbeat(14, b.link->sink(14)); // "device locked"
    server.unlockDevice(15);
    server.startHeartbeat(15, c.link->sink(15));
    step(c, true);
    server.removeDevice(15);
    step(a, true);
    transport.pumpUntilIdle(pool);

    util::StatsRegistry registry;
    srv::collectServerStats(server, registry);
    transport.transportCore().collectStats(registry);
    std::ostringstream os;
    registry.dump(os);
    return os.str();
}

/** mixedFlowStats()'s dump: every key and value of the three
 *  collectors. */
const char *const kMixedFlowStatsGolden =
    "statistic                             value  \n"
    "---------------------------------------------\n"
    "server.authentications_accepted       1      \n"
    "server.authentications_rejected       2      \n"
    "server.devices                        2      \n"
    "server.devices_locked                 1      \n"
    "server.duplicate_completions          1      \n"
    "server.duplicate_requests             1      \n"
    "server.enrolled_error_lines           641    \n"
    "server.lockouts                       1      \n"
    "server.pending_sessions               0      \n"
    "server.remaps_committed               1      \n"
    "server.remaps_rejected                0      \n"
    "server.session_shards                 2      \n"
    "server.sessions_evicted               0      \n"
    "server.sessions_expired               2      \n"
    "server.shard0.cap_evictions           0      \n"
    "server.shard0.dedup_hits              0      \n"
    "server.shard0.gc_evictions            0      \n"
    "server.shard0.heartbeats_active       0      \n"
    "server.shard0.lockouts                1      \n"
    "server.shard0.replay_cache_hits       1      \n"
    "server.shard0.sessions_active         0      \n"
    "server.shard0.trust_decays            0      \n"
    "server.shard1.cap_evictions           0      \n"
    "server.shard1.dedup_hits              1      \n"
    "server.shard1.gc_evictions            2      \n"
    "server.shard1.heartbeats_active       1      \n"
    "server.shard1.lockouts                0      \n"
    "server.shard1.replay_cache_hits       0      \n"
    "server.shard1.sessions_active         0      \n"
    "server.shard1.trust_decays            2      \n"
    "server.transport.accepted             22     \n"
    "server.transport.backpressure_stalls  0      \n"
    "server.transport.batches              20     \n"
    "server.transport.bytes_in             1156   \n"
    "server.transport.bytes_out            42430  \n"
    "server.transport.codec_errors         0      \n"
    "server.transport.connections_closed   0      \n"
    "server.transport.connections_live     4      \n"
    "server.transport.connections_opened   4      \n"
    "server.transport.dropped_on_close     0      \n"
    "server.transport.frames_in            23     \n"
    "server.transport.frames_out           36     \n"
    "server.transport.queued               0      \n"
    "server.transport.shed                 1      \n"
    "server.transport.sinks_retired        9      \n"
    "server.transport.slow_reader_drops    0      \n"
    "server.trust.decays                   2      \n"
    "server.trust.heartbeats_active        1      \n"
    "server.trust.heartbeats_clean         8      \n"
    "server.trust.heartbeats_failed        2      \n"
    "server.trust.heartbeats_marginal      0      \n"
    "server.trust.proactive_remaps         0      \n"
    "server.trust.revocations              1      \n"
    "server.trust.step_ups                 1      \n"
    "server.trust.unlocks                  1      \n";

} // namespace

TEST(ServerStats, MixedFlowGolden)
{
    const std::string stats = mixedFlowStats(1);
    EXPECT_EQ(stats, kMixedFlowStatsGolden);
    EXPECT_EQ(mixedFlowStats(4), stats);
}
