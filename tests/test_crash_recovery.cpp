/**
 * @file
 * The crash-injection recovery sweep: the headline durability test.
 *
 * A fixed, deterministic workload -- enrollments, honest and failing
 * authentications (driving a lockout), a committed remap exchange,
 * heartbeat rounds (clean and failed, exercising the trust ledger),
 * an admin revocation and unlock, rotation mid-run -- executes
 * against a server with the durability
 * layer attached and a CrashInjector armed at one opportunity. The
 * injector kills the process (via CrashException) at every journal
 * append, every fsync boundary, every snapshot write step, and every
 * generation-GC unlink, one trial per opportunity. After each crash,
 * recovery must restore a database byte-identical (canonical snapshot
 * encoding) to the state reached by applying the first lastSeq events
 * of an uncrashed reference run -- i.e. every durable state is an
 * exact event-stream prefix: retirements are exactly-once, a remap
 * key is fully old or fully new, and a disclosed lockout survives.
 *
 * A second sweep re-runs the snapshot write at every *byte* offset
 * (WriteGranularity::EveryByte) and checks the atomic-replacement
 * contract, including fallback to the previous generation.
 *
 * Environment knobs:
 *   AUTHENTICACHE_QUICK=1       strided smoke subset of each sweep
 *   AUTHENTICACHE_CRASH_FULL=1  forces the full matrix even if QUICK
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/remap.hpp"
#include "crypto/fuzzy_extractor.hpp"
#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "server/storage.hpp"
#include "temp_dir.hpp"

namespace srv = authenticache::server;
namespace jnl = authenticache::server::journal;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace mc = authenticache::mc;
namespace proto = authenticache::protocol;
namespace crypto = authenticache::crypto;
namespace util = authenticache::util;
namespace fs = std::filesystem;
using authenticache::test::TempDir;

namespace {

constexpr core::VddMv kLevel = 700.0;
constexpr core::VddMv kReservedLvl = 705.0;
constexpr std::uint64_t kServerSeed = 0x5EED;
constexpr std::size_t kMapErrors = 40;
const sim::CacheGeometry kGeom(64 * 1024);

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' && *v != '0';
}

/** Stride through a sweep: 1 = every opportunity. */
std::uint64_t
sweepStride(std::uint64_t quick_stride)
{
    if (envFlag("AUTHENTICACHE_CRASH_FULL"))
        return 1;
    return envFlag("AUTHENTICACHE_QUICK") ? quick_stride : 1;
}

core::ErrorMap
deviceMap(std::uint64_t id)
{
    util::Rng rng = util::Rng::forStream(0xC4A5, id);
    core::ErrorMap map =
        mc::randomErrorMap(kGeom, kLevel, kMapErrors, rng);
    auto &plane = map.plane(kReservedLvl);
    while (plane.errorCount() < kMapErrors)
        plane.add(kGeom.pointOf(rng.nextBelow(kGeom.lines())));
    return map;
}

srv::DeviceRecord
makeRecord(std::uint64_t id)
{
    srv::DeviceRecord record(id, deviceMap(id), {kLevel},
                             {kReservedLvl});
    record.setMapKey(crypto::Key256::fromDigest(crypto::Sha256::hash(
        "crash-key-" + std::to_string(id))));
    return record;
}

srv::ServerConfig
makeConfig()
{
    srv::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 32;
    cfg.lockoutThreshold = 2;
    cfg.sessionShards = 4;
    // Each device completes at most three auth sessions, so a
    // checkpoint every three outcomes guarantees the sweep covers
    // CounterCheckpoint crash points.
    cfg.counterCheckpointEvery = 3;
    return cfg;
}

util::BitVec
honestResponse(const srv::DeviceRecord &rec,
               const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

proto::RemapAck
craftAck(const srv::DeviceRecord &rec, const proto::RemapRequest &rr)
{
    core::LogicalRemap identity(crypto::Key256::zero(),
                                rec.physicalMap().geometry());
    auto response = core::evaluate(
        identity.mapErrorMap(rec.physicalMap()), rr.challenge);
    crypto::FuzzyExtractor extractor(rr.repetition);
    auto key = extractor.reproduce(response, rr.helper);
    proto::RemapAck ack;
    ack.nonce = rr.nonce;
    ack.success = true;
    ack.confirmation = crypto::keyConfirmation(key, rr.nonce);
    return ack;
}

/** What a (possibly crashed) workload run reports back. */
struct RunResult
{
    bool crashed = false;
    std::size_t completedSteps = 0;
    /** Manager sequence after each completed step (ref runs). */
    std::vector<std::uint64_t> seqAfterStep;
    /** Final database bytes (uncrashed runs only). */
    std::vector<std::uint8_t> finalState;
    crypto::Key256 key201; ///< Device 201's key at the end.
};

/**
 * The scripted workload. Deterministic by construction: fixed seeds,
 * fixed step order, single-threaded pumping. The event stream it
 * journals is identical on every run, so a crashed run's durable
 * state is always a prefix of the uncrashed run's event stream.
 */
RunResult
runWorkload(const std::string &dir, std::uint64_t rotate_every,
            srv::CrashInjector *inj)
{
    RunResult out;
    srv::DurabilityConfig dcfg{dir, rotate_every};
    try {
        srv::ServerConfig cfg = makeConfig();
        srv::AuthenticationServer server(cfg, kServerSeed);
        auto recovered = srv::DurabilityManager::recover(dcfg);
        server.adoptDatabase(std::move(recovered.db));
        srv::DurabilityManager mgr(dcfg, server.database(),
                                   recovered.lastSeq, inj);
        server.attachDurability(&mgr);

        proto::InMemoryChannel chan;
        proto::ServerEndpoint sep(chan);

        auto drainToClient = [&]() {
            std::vector<proto::Message> msgs;
            while (auto frame = chan.receiveAtClient())
                msgs.push_back(proto::decodeMessage(*frame));
            return msgs;
        };

        auto auth = [&](std::uint64_t id, bool honest) {
            chan.sendToServer(
                proto::encodeMessage(proto::AuthRequest{id}));
            server.pumpAll(sep);
            std::optional<proto::ChallengeMsg> ch;
            for (const auto &m : drainToClient())
                if (const auto *c =
                        std::get_if<proto::ChallengeMsg>(&m))
                    ch = *c;
            if (!ch)
                return; // Locked device: ErrorMsg, no session.
            auto resp = honestResponse(server.database().at(id),
                                       ch->challenge);
            if (!honest)
                for (std::size_t b = 0; b < resp.size(); ++b)
                    resp.flip(b);
            chan.sendToServer(proto::encodeMessage(
                proto::ResponseMsg{ch->nonce, resp}));
            server.pumpAll(sep);
            drainToClient();
        };

        auto remap = [&](std::uint64_t id) {
            server.startRemap(id, sep);
            std::optional<proto::RemapRequest> rr;
            for (const auto &m : drainToClient())
                if (const auto *r =
                        std::get_if<proto::RemapRequest>(&m))
                    rr = *r;
            ASSERT_TRUE(rr.has_value());
            chan.sendToServer(proto::encodeMessage(
                craftAck(server.database().at(id), *rr)));
            server.pumpAll(sep);
            drainToClient();
        };

        auto remapRejected = [&](std::uint64_t id) {
            server.startRemap(id, sep);
            std::optional<proto::RemapRequest> rr;
            for (const auto &m : drainToClient())
                if (const auto *r =
                        std::get_if<proto::RemapRequest>(&m))
                    rr = *r;
            ASSERT_TRUE(rr.has_value());
            auto ack = craftAck(server.database().at(id), *rr);
            ack.confirmation[0] ^= 0xFF; // Key confirmation fails.
            chan.sendToServer(proto::encodeMessage(ack));
            server.pumpAll(sep);
            drainToClient();
        };

        auto heartbeat = [&](std::uint64_t id, bool honest) {
            server.startHeartbeat(id, sep);
            std::optional<proto::Heartbeat> hb;
            for (const auto &m : drainToClient())
                if (const auto *h = std::get_if<proto::Heartbeat>(&m))
                    hb = *h;
            ASSERT_TRUE(hb.has_value());
            auto resp = honestResponse(server.database().at(id),
                                       hb->challenge);
            if (!honest)
                for (std::size_t b = 0; b < resp.size(); ++b)
                    resp.flip(b);
            chan.sendToServer(proto::encodeMessage(
                proto::HeartbeatProof{hb->nonce, resp}));
            server.pumpAll(sep);
            drainToClient();
            server.stopHeartbeat(id);
        };

        const std::vector<std::function<void()>> steps = {
            [&] { server.enrollRecord(makeRecord(201)); },
            [&] { server.enrollRecord(makeRecord(202)); },
            [&] { server.enrollRecord(makeRecord(203)); },
            [&] { auth(201, true); },
            [&] { auth(202, true); },
            [&] { auth(203, false); },
            [&] { auth(203, false); }, // Second failure: lockout.
            [&] { auth(203, true); },  // Locked: refused, no events.
            [&] { remap(201); },       // Key switches here.
            [&] { auth(201, true); },  // Under the new key.
            [&] { auth(202, true); },
            [&] { heartbeat(201, true); },  // Clean round: trust up.
            [&] { heartbeat(202, false); }, // Failed round: decay.
            [&] { server.revokeDevice(202); },
            [&] { server.unlockDevice(202); },
            [&] { auth(202, true); }, // Operational post-unlock.
            [&] { auth(201, true); },
            [&] { remapRejected(202); }, // Old key stays in force.
            [&] { server.removeDevice(203); },
        };
        for (const auto &step : steps) {
            step();
            out.seqAfterStep.push_back(mgr.lastSequence());
            ++out.completedSteps;
        }
        out.finalState = srv::saveDatabase(server.database());
        out.key201 = server.database().at(201).mapKey();
    } catch (const srv::CrashException &) {
        out.crashed = true;
    }
    return out;
}

/** Apply the first @p n reference events onto an empty database. */
srv::EnrollmentDatabase
referencePrefix(const std::vector<jnl::Event> &events, std::uint64_t n)
{
    srv::EnrollmentDatabase db;
    for (std::uint64_t i = 0; i < n && i < events.size(); ++i)
        jnl::applyEvent(db, events[i]);
    return db;
}

void
copyDir(const fs::path &from, const fs::path &to)
{
    fs::remove_all(to);
    fs::create_directories(to);
    for (const auto &entry : fs::directory_iterator(from))
        fs::copy_file(entry.path(), to / entry.path().filename());
}

} // namespace

TEST(CrashRecovery, WorkloadSweepRestoresExactPrefix)
{
    // Reference run: no rotation, so journal-0 holds the complete
    // event stream (rotation changes where snapshots land, never
    // which events exist or their sequence numbers).
    TempDir ref_dir("auth_crash_ref");
    auto ref = runWorkload(ref_dir.str(), 0, nullptr);
    ASSERT_FALSE(ref.crashed);
    ASSERT_EQ(ref.completedSteps, 19u);

    std::vector<jnl::Event> events;
    auto rr = jnl::Journal::replay(
        srv::DurabilityManager::journalPath(ref_dir.str(), 0), 0,
        [&](std::uint64_t seq, const jnl::Event &event) {
            ASSERT_EQ(seq, events.size() + 1); // Contiguous from 1.
            events.push_back(event);
        });
    ASSERT_TRUE(rr.headerValid);
    ASSERT_FALSE(rr.tornTail);
    ASSERT_GE(events.size(), 20u);
    ASSERT_EQ(events.size(), ref.seqAfterStep.back());

    // The sweep must demonstrably cover every journal event type:
    // each crash point around each record kind gets a trial below,
    // so an alternative missing from this census would mean a
    // recovery path the sweep never exercises.
    std::size_t pairs_retired = 0, auth_outcomes = 0;
    std::size_t remaps_prepared = 0, remaps_committed = 0;
    std::size_t remaps_rejected = 0, unlocked = 0, removed = 0;
    std::size_t enrolled = 0, checkpoints = 0;
    std::size_t trust_updates = 0, revoked = 0;
    for (const auto &event : events) {
        if (std::holds_alternative<jnl::PairsRetired>(event))
            ++pairs_retired;
        else if (std::holds_alternative<jnl::AuthOutcome>(event))
            ++auth_outcomes;
        else if (std::holds_alternative<jnl::RemapPrepared>(event))
            ++remaps_prepared;
        else if (std::holds_alternative<jnl::RemapCommitted>(event))
            ++remaps_committed;
        else if (std::holds_alternative<jnl::RemapRejected>(event))
            ++remaps_rejected;
        else if (std::holds_alternative<jnl::DeviceUnlocked>(event))
            ++unlocked;
        else if (std::holds_alternative<jnl::DeviceRemoved>(event))
            ++removed;
        else if (std::holds_alternative<jnl::Enrolled>(event))
            ++enrolled;
        else if (std::holds_alternative<jnl::CounterCheckpoint>(event))
            ++checkpoints;
        else if (std::holds_alternative<jnl::TrustUpdate>(event))
            ++trust_updates;
        else if (std::holds_alternative<jnl::DeviceRevoked>(event))
            ++revoked;
    }
    // Deterministic singletons / admin actions.
    EXPECT_EQ(enrolled, 3u);
    EXPECT_EQ(remaps_committed, 1u); // remap(201).
    EXPECT_EQ(remaps_rejected, 1u);  // remapRejected(202).
    EXPECT_EQ(revoked, 1u);
    EXPECT_EQ(unlocked, 1u);
    EXPECT_EQ(removed, 1u); // removeDevice(203).
    // Round-dependent counts (auth sessions + heartbeat rounds).
    EXPECT_GE(pairs_retired, 8u);
    EXPECT_GE(auth_outcomes, 8u);
    EXPECT_GE(remaps_prepared, 2u);
    EXPECT_GE(checkpoints, 1u); // Third outcome on 201 and 202.
    EXPECT_GE(trust_updates, 4u); // Session starts + verdicts + admin.
    // The census is itself exhaustive: every event was counted.
    EXPECT_EQ(pairs_retired + auth_outcomes + remaps_prepared +
                  remaps_committed + remaps_rejected + unlocked +
                  removed + enrolled + checkpoints + trust_updates +
                  revoked,
              events.size());

    // The reference database equals its own event-stream replay:
    // the journal is a complete, faithful history.
    EXPECT_EQ(srv::saveDatabase(
                  referencePrefix(events, events.size())),
              ref.finalState);

    const crypto::Key256 old_key = makeRecord(201).mapKey();
    ASSERT_NE(ref.key201, old_key); // The remap really switched it.

    // Dry-run with rotation enabled to size the sweep.
    TempDir trial_dir("auth_crash_trial");
    srv::CrashInjector inj;
    inj.disarm();
    {
        auto dry = runWorkload(trial_dir.str(), 8, &inj);
        ASSERT_FALSE(dry.crashed);
        // Rotation must actually trigger mid-run for the sweep to
        // cover snapshot + GC crash points.
        auto rec = srv::DurabilityManager::recover(
            srv::DurabilityConfig{trial_dir.str(), 8});
        ASSERT_GT(rec.generation, 0u);
        EXPECT_EQ(srv::saveDatabase(rec.db), ref.finalState);
    }
    const std::uint64_t total = inj.opportunities();
    ASSERT_GT(total, 50u);

    const std::uint64_t stride = sweepStride(7);
    std::uint64_t trials = 0;
    std::uint64_t outcome_tally[4] = {0, 0, 0, 0};
    std::uint64_t torn_truncations = 0;
    for (std::uint64_t t = 0; t < total; t += stride, ++trials) {
        trial_dir.wipe();
        inj.arm(t);
        auto run = runWorkload(trial_dir.str(), 8, &inj);
        inj.disarm();
        ASSERT_TRUE(run.crashed) << "opportunity " << t;

        srv::RecoveryResult rec;
        ASSERT_NO_THROW(rec = srv::DurabilityManager::recover(
                            srv::DurabilityConfig{trial_dir.str(), 8}))
            << "opportunity " << t;
        ++outcome_tally[static_cast<std::size_t>(rec.outcome())];
        if (rec.tornTailTruncated)
            ++torn_truncations;

        // Exact-prefix invariant: the recovered database is byte-
        // identical to the reference event stream replayed up to the
        // recovered sequence. This subsumes exactly-once retirement
        // (a double-applied PairsRetired would not change the set,
        // but a lost or phantom one would diverge) and all counters.
        ASSERT_LE(rec.lastSeq, events.size()) << "opportunity " << t;
        EXPECT_EQ(srv::saveDatabase(rec.db),
                  srv::saveDatabase(
                      referencePrefix(events, rec.lastSeq)))
            << "opportunity " << t;

        // Sync-before-reply: everything a completed step disclosed
        // to the client is durable.
        const std::size_t k = run.completedSteps;
        ASSERT_LE(k, ref.seqAfterStep.size());
        const std::uint64_t floor =
            k > 0 ? ref.seqAfterStep[k - 1] : 0;
        EXPECT_GE(rec.lastSeq, floor) << "opportunity " << t;

        // Targeted checks on the recovered record state.
        if (rec.db.contains(201)) {
            const auto &key = rec.db.at(201).mapKey();
            EXPECT_TRUE(key == old_key || key == ref.key201)
                << "partial key switch at opportunity " << t;
            if (k > 8) { // Remap step completed and was disclosed.
                EXPECT_EQ(key, ref.key201) << "opportunity " << t;
            }
        }
        if (k > 6 && rec.db.contains(203)) { // Lockout disclosed.
            EXPECT_TRUE(rec.db.at(203).locked())
                << "opportunity " << t;
        }

        // Recovery is idempotent: a second pass (after any torn-tail
        // truncation the first one did) lands on the same state.
        auto again = srv::DurabilityManager::recover(
            srv::DurabilityConfig{trial_dir.str(), 8});
        EXPECT_FALSE(again.tornTailTruncated) << "opportunity " << t;
        EXPECT_EQ(srv::saveDatabase(again.db),
                  srv::saveDatabase(rec.db))
            << "opportunity " << t;
    }
    ASSERT_GE(trials, 8u);
    std::cout << "[sweep] opportunities=" << total << " stride="
              << stride << " trials=" << trials
              << " | recovery outcomes: fresh_start="
              << outcome_tally[0]
              << " snapshot_only=" << outcome_tally[1]
              << " snapshot+journal=" << outcome_tally[2]
              << " fallback_snapshot=" << outcome_tally[3]
              << " torn_tail_truncations=" << torn_truncations
              << "\n";
}

TEST(CrashRecovery, RestartedServerContinuesFromRecoveredState)
{
    // Crash mid-workload at a representative opportunity, recover,
    // and drive fresh authentications: the recovered database must
    // be fully operational (maps, keys, and lockouts intact).
    TempDir dir("auth_crash_resume");
    srv::CrashInjector inj;
    inj.disarm();
    {
        auto dry = runWorkload(dir.str(), 8, &inj);
        ASSERT_FALSE(dry.crashed);
    }
    const std::uint64_t total = inj.opportunities();
    dir.wipe();
    inj.arm(total * 3 / 4); // Late in the run: remap already done.
    auto run = runWorkload(dir.str(), 8, &inj);
    inj.disarm();
    ASSERT_TRUE(run.crashed);

    srv::DurabilityConfig dcfg{dir.str(), 8};
    auto rec = srv::DurabilityManager::recover(dcfg);
    ASSERT_TRUE(rec.db.contains(201));
    ASSERT_TRUE(rec.db.contains(202));

    srv::ServerConfig cfg = makeConfig();
    srv::AuthenticationServer server(cfg, kServerSeed + 1);
    server.adoptDatabase(std::move(rec.db));
    srv::DurabilityManager mgr(dcfg, server.database(), rec.lastSeq,
                               nullptr);
    mgr.noteRecovery(rec);
    server.attachDurability(&mgr);
    server.seedCompletedRemaps(rec.remapOutcomes);

    proto::InMemoryChannel chan;
    proto::ServerEndpoint sep(chan);
    for (std::uint64_t id : {201, 202}) {
        chan.sendToServer(
            proto::encodeMessage(proto::AuthRequest{id}));
        server.pumpAll(sep);
        std::optional<proto::ChallengeMsg> ch;
        while (auto frame = chan.receiveAtClient()) {
            auto m = proto::decodeMessage(*frame);
            if (const auto *c = std::get_if<proto::ChallengeMsg>(&m))
                ch = *c;
        }
        ASSERT_TRUE(ch.has_value()) << "device " << id;
        auto resp = honestResponse(server.database().at(id),
                                   ch->challenge);
        chan.sendToServer(proto::encodeMessage(
            proto::ResponseMsg{ch->nonce, resp}));
        server.pumpAll(sep);
        bool accepted = false;
        while (auto frame = chan.receiveAtClient()) {
            auto m = proto::decodeMessage(*frame);
            if (const auto *d = std::get_if<proto::AuthDecision>(&m))
                accepted = d->accepted;
        }
        EXPECT_TRUE(accepted) << "device " << id;
    }
}

TEST(CrashRecovery, SnapshotByteSweep)
{
    // Prepare a template state: one small device, a generation-0
    // snapshot, and one journaled event.
    TempDir tmpl("auth_crash_snap_tmpl");
    srv::DurabilityConfig tcfg{tmpl.str(), 0};
    {
        srv::EnrollmentDatabase db;
        util::Rng rng(0x51AB);
        core::ErrorMap map =
            mc::randomErrorMap(kGeom, kLevel, 12, rng);
        srv::DeviceRecord record(7, std::move(map), {kLevel}, {});
        record.setMapKey(crypto::Key256::fromDigest(
            crypto::Sha256::hash("snap-sweep")));
        db.enroll(std::move(record));
        srv::DurabilityManager mgr(tcfg, db, 0);
        mgr.append(jnl::AuthOutcome{7, true, false});
        mgr.sync();
    }
    auto ref = srv::DurabilityManager::recover(tcfg);
    ASSERT_EQ(ref.lastSeq, 1u);
    const auto ref_state = srv::saveDatabase(ref.db);

    // Dry-run: restarting over the template rotates to generation 1,
    // writing a full snapshot. Count its byte-granular opportunities.
    TempDir work("auth_crash_snap_work");
    srv::CrashInjector inj;
    inj.setGranularity(srv::CrashInjector::WriteGranularity::EveryByte);
    inj.disarm();
    srv::DurabilityConfig wcfg{work.str(), 0};
    {
        copyDir(tmpl.path, work.path);
        auto rec = srv::DurabilityManager::recover(wcfg);
        srv::DurabilityManager mgr(wcfg, rec.db, rec.lastSeq, &inj);
        ASSERT_EQ(mgr.generation(), 1u);
    }
    const std::uint64_t total = inj.opportunities();
    ASSERT_GT(total, 100u); // Must actually cover the snapshot bytes.

    const std::uint64_t stride = sweepStride(13);
    std::uint64_t trials = 0;
    std::uint64_t fallbacks = 0;
    for (std::uint64_t t = 0; t < total; t += stride, ++trials) {
        copyDir(tmpl.path, work.path);
        auto rec = srv::DurabilityManager::recover(wcfg);
        inj.arm(t);
        bool crashed = false;
        try {
            srv::DurabilityManager mgr(wcfg, rec.db, rec.lastSeq,
                                       &inj);
        } catch (const srv::CrashException &) {
            crashed = true;
        }
        inj.disarm();
        ASSERT_TRUE(crashed) << "opportunity " << t;

        // Whatever byte the snapshot write died on, recovery reaches
        // the identical state: either the new generation is complete
        // or the old one (snapshot-0 + journal-0) is authoritative.
        auto after = srv::DurabilityManager::recover(wcfg);
        EXPECT_EQ(srv::saveDatabase(after.db), ref_state)
            << "opportunity " << t;
        EXPECT_EQ(after.lastSeq, 1u) << "opportunity " << t;
        fallbacks += after.snapshotFallbacks;
    }
    std::cout << "[sweep] snapshot_write_opportunities=" << total
              << " stride=" << stride << " trials=" << trials
              << " fallbacks_to_previous_generation=" << fallbacks
              << "\n";
}
