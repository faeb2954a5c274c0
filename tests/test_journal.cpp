/**
 * @file
 * Tests for the write-ahead journal and the durability manager: event
 * encode/decode/apply round trips, append + replay (including torn
 * tails and sequence watermarks), crash-safe journal creation, and
 * the manager's rotation / retention / fallback / recovery behavior.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/journal.hpp"
#include "server/storage.hpp"
#include "temp_dir.hpp"
#include "util/crc32.hpp"

namespace srv = authenticache::server;
namespace jnl = authenticache::server::journal;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace crypto = authenticache::crypto;
namespace fs = std::filesystem;
using authenticache::test::TempDir;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(256 * 1024);

core::ErrorMap
sampleMap(std::uint64_t seed)
{
    Rng rng(seed);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, 30, rng);
    auto more = authenticache::mc::randomErrorMap(kGeom, 690, 20, rng);
    for (const auto &e : more.plane(690).errors())
        map.plane(690).add(e);
    return map;
}

srv::DeviceRecord
sampleRecord(std::uint64_t id, std::uint64_t seed)
{
    srv::DeviceRecord record(id, sampleMap(seed), {700}, {690});
    record.setMapKey(crypto::Key256::fromDigest(crypto::Sha256::hash(
        std::string("key") + std::to_string(seed))));
    return record;
}

crypto::Key256
sampleKey(const std::string &tag)
{
    return crypto::Key256::fromDigest(crypto::Sha256::hash(tag));
}

/** Round-trip one event through the wire encoding. */
jnl::Event
roundTrip(const jnl::Event &event)
{
    proto::ByteWriter w;
    jnl::encodeEvent(w, event);
    proto::ByteReader r(w.bytes());
    auto decoded = jnl::decodeEvent(r);
    EXPECT_TRUE(r.exhausted());
    return decoded;
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(JournalEvents, PairsRetiredRoundTrip)
{
    jnl::PairsRetired e{42,
                        {{700, 700, 3, 99}, {700, 690, 5, 7}}};
    auto decoded = std::get<jnl::PairsRetired>(roundTrip(e));
    EXPECT_EQ(decoded.deviceId, 42u);
    ASSERT_EQ(decoded.pairs.size(), 2u);
    EXPECT_EQ(decoded.pairs[0].levelA, 700u);
    EXPECT_EQ(decoded.pairs[0].lineB, 99u);
    EXPECT_EQ(decoded.pairs[1].levelB, 690u);
    EXPECT_EQ(decoded.pairs[1].lineA, 5u);
}

TEST(JournalEvents, AllTypesRoundTrip)
{
    auto key = sampleKey("remap");
    auto a = std::get<jnl::AuthOutcome>(
        roundTrip(jnl::AuthOutcome{7, true, true}));
    EXPECT_TRUE(a.accepted);
    EXPECT_TRUE(a.lockedNow);

    auto p = std::get<jnl::RemapPrepared>(
        roundTrip(jnl::RemapPrepared{7, 0xABCD}));
    EXPECT_EQ(p.nonce, 0xABCDu);

    auto c = std::get<jnl::RemapCommitted>(
        roundTrip(jnl::RemapCommitted{7, 0xABCD, key}));
    EXPECT_EQ(c.newKey, key);

    auto rj = std::get<jnl::RemapRejected>(
        roundTrip(jnl::RemapRejected{7, 0xABCD}));
    EXPECT_EQ(rj.deviceId, 7u);

    auto u = std::get<jnl::DeviceUnlocked>(
        roundTrip(jnl::DeviceUnlocked{9}));
    EXPECT_EQ(u.deviceId, 9u);

    auto rm = std::get<jnl::DeviceRemoved>(
        roundTrip(jnl::DeviceRemoved{9}));
    EXPECT_EQ(rm.deviceId, 9u);

    proto::ByteWriter w;
    srv::encodeDeviceRecord(w, sampleRecord(3, 30));
    std::size_t record_bytes = w.bytes().size();
    auto en = std::get<jnl::Enrolled>(
        roundTrip(jnl::Enrolled{w.take()}));
    EXPECT_EQ(en.record.size(), record_bytes);

    auto cc = std::get<jnl::CounterCheckpoint>(
        roundTrip(jnl::CounterCheckpoint{7, 10, 4, 2}));
    EXPECT_EQ(cc.accepted, 10u);
    EXPECT_EQ(cc.consecutiveFails, 2u);

    auto tu = std::get<jnl::TrustUpdate>(
        roundTrip(jnl::TrustUpdate{7, 55, 2, true}));
    EXPECT_EQ(tu.trust, 55u);
    EXPECT_EQ(tu.remapBudgetUsed, 2u);
    EXPECT_TRUE(tu.reenrollRequired);

    auto rv = std::get<jnl::DeviceRevoked>(
        roundTrip(jnl::DeviceRevoked{9}));
    EXPECT_EQ(rv.deviceId, 9u);
}

TEST(JournalEvents, DecodeRejectsBadType)
{
    proto::ByteWriter w;
    w.putU8(200); // No such event type.
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(jnl::decodeEvent(r), proto::DecodeError);
}

TEST(JournalEvents, ApplyRebuildsState)
{
    srv::EnrollmentDatabase db;

    // Enrollment via the journal inserts the record.
    proto::ByteWriter w;
    srv::encodeDeviceRecord(w, sampleRecord(1, 10));
    jnl::applyEvent(db, jnl::Enrolled{w.take()});
    ASSERT_TRUE(db.contains(1));

    // Retirement consumes both single-level and mixed pairs, and is
    // idempotent (replay after a partial flush re-delivers events).
    jnl::PairsRetired retired{1, {{700, 700, 3, 99}, {700, 690, 5, 7}}};
    jnl::applyEvent(db, retired);
    jnl::applyEvent(db, retired);
    EXPECT_FALSE(db.at(1).pairAvailable(700, 99, 3));
    EXPECT_EQ(db.at(1).consumedCount(700), 1u);
    EXPECT_EQ(db.at(1).consumedMixedCount(), 1u);

    jnl::applyEvent(db, jnl::AuthOutcome{1, true, false});
    jnl::applyEvent(db, jnl::AuthOutcome{1, false, true});
    EXPECT_EQ(db.at(1).accepted(), 1u);
    EXPECT_EQ(db.at(1).rejected(), 1u);
    EXPECT_TRUE(db.at(1).locked());

    jnl::applyEvent(db, jnl::DeviceUnlocked{1});
    EXPECT_FALSE(db.at(1).locked());

    auto key = sampleKey("switched");
    jnl::applyEvent(db, jnl::RemapCommitted{1, 5, key});
    EXPECT_EQ(db.at(1).mapKey(), key);

    jnl::applyEvent(db, jnl::CounterCheckpoint{1, 20, 6, 3});
    EXPECT_EQ(db.at(1).accepted(), 20u);
    EXPECT_EQ(db.at(1).rejected(), 6u);
    EXPECT_EQ(db.at(1).consecutiveFailures(), 3u);

    jnl::applyEvent(db, jnl::DeviceRemoved{1});
    EXPECT_FALSE(db.contains(1));
}

TEST(JournalEvents, ApplyRejectsUnknownDevice)
{
    srv::EnrollmentDatabase db;
    EXPECT_THROW(jnl::applyEvent(db, jnl::AuthOutcome{5, true, false}),
                 proto::DecodeError);
    EXPECT_THROW(
        jnl::applyEvent(db, jnl::Enrolled{{1, 2, 3}}),
        proto::DecodeError);
}

TEST(Journal, AppendReplayRoundTrip)
{
    TempDir dir("auth_journal_rt");
    std::string path = dir.str() + "/journal-0.acjl";
    auto log = jnl::Journal::create(path, 0);
    log.append(1, jnl::DeviceUnlocked{11});
    log.append(2, jnl::AuthOutcome{11, true, false});
    log.append(3, jnl::RemapPrepared{11, 77});
    EXPECT_TRUE(log.sync());
    EXPECT_FALSE(log.sync()); // Clean: no second fsync.
    log.close();

    std::vector<std::uint64_t> seqs;
    auto rr = jnl::Journal::replay(
        path, 0, [&](std::uint64_t seq, const jnl::Event &) {
            seqs.push_back(seq);
        });
    EXPECT_TRUE(rr.headerValid);
    EXPECT_EQ(rr.generation, 0u);
    EXPECT_EQ(rr.records, 3u);
    EXPECT_EQ(rr.lastSeq, 3u);
    EXPECT_FALSE(rr.tornTail);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));

    // The watermark filter skips already-snapshotted records.
    seqs.clear();
    rr = jnl::Journal::replay(
        path, 2, [&](std::uint64_t seq, const jnl::Event &) {
            seqs.push_back(seq);
        });
    EXPECT_EQ(rr.records, 1u);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3}));
}

TEST(Journal, TornTailDetectedAtEveryTruncation)
{
    TempDir dir("auth_journal_torn");
    std::string path = dir.str() + "/journal-0.acjl";
    auto log = jnl::Journal::create(path, 0);
    log.append(1, jnl::DeviceUnlocked{1});
    log.append(2, jnl::DeviceUnlocked{2});
    log.sync();
    std::uint64_t full = log.bytesWritten();
    log.close();
    auto bytes = readFile(path);
    ASSERT_EQ(bytes.size(), full);

    // Find where record 2 starts by replaying record 1 only.
    auto one = jnl::Journal::replay(
        path, 0, [&](std::uint64_t, const jnl::Event &) {});
    std::uint64_t header = 14; // magic + version + generation.
    std::uint64_t rec1_end = header + (one.validBytes - header) / 2;

    for (std::size_t cut = header; cut < bytes.size(); ++cut) {
        auto torn = bytes;
        torn.resize(cut);
        writeFile(path, torn);
        std::uint64_t delivered = 0;
        auto rr = jnl::Journal::replay(
            path, 0,
            [&](std::uint64_t, const jnl::Event &) { ++delivered; });
        EXPECT_TRUE(rr.headerValid);
        if (cut == header) {
            // Header-only is a clean, freshly created journal.
            EXPECT_FALSE(rr.tornTail);
            EXPECT_EQ(delivered, 0u);
        } else if (cut < rec1_end) {
            EXPECT_TRUE(rr.tornTail) << "cut " << cut;
            EXPECT_EQ(delivered, 0u);
            EXPECT_EQ(rr.validBytes, header);
        } else if (cut == rec1_end) {
            // Truncation on a record boundary is a clean journal.
            EXPECT_FALSE(rr.tornTail) << "cut " << cut;
            EXPECT_EQ(delivered, 1u);
        } else {
            EXPECT_TRUE(rr.tornTail) << "cut " << cut;
            EXPECT_EQ(delivered, 1u);
            EXPECT_EQ(rr.validBytes, rec1_end);
        }
    }
}

TEST(Journal, CorruptRecordStopsReplay)
{
    TempDir dir("auth_journal_crc");
    std::string path = dir.str() + "/journal-0.acjl";
    auto log = jnl::Journal::create(path, 3);
    log.append(1, jnl::DeviceUnlocked{1});
    log.append(2, jnl::DeviceUnlocked{2});
    log.sync();
    log.close();

    auto bytes = readFile(path);
    bytes.back() ^= 0xFF; // Corrupt record 2's payload.
    writeFile(path, bytes);
    std::uint64_t delivered = 0;
    auto rr = jnl::Journal::replay(
        path, 0, [&](std::uint64_t, const jnl::Event &) { ++delivered; });
    EXPECT_TRUE(rr.headerValid);
    EXPECT_EQ(rr.generation, 3u);
    EXPECT_EQ(delivered, 1u);
    EXPECT_TRUE(rr.tornTail);
}

TEST(Journal, BadHeaderRejected)
{
    TempDir dir("auth_journal_hdr");
    std::string path = dir.str() + "/journal-0.acjl";
    writeFile(path, {1, 2, 3, 4, 5});
    auto rr = jnl::Journal::replay(
        path, 0, [&](std::uint64_t, const jnl::Event &) {
            FAIL() << "no record should decode";
        });
    EXPECT_FALSE(rr.headerValid);
}

TEST(Journal, CreateCrashLeavesNoUsableFile)
{
    TempDir dir("auth_journal_create");
    std::string path = dir.str() + "/journal-0.acjl";
    srv::CrashInjector inj;
    inj.disarm();
    { auto log = jnl::Journal::create(path, 0, &inj); }
    std::uint64_t total = inj.opportunities();
    ASSERT_GT(total, 1u);
    for (std::uint64_t t = 0; t < total; ++t) {
        fs::remove(path);
        inj.arm(t);
        EXPECT_THROW(jnl::Journal::create(path, 0, &inj),
                     srv::CrashException)
            << "opportunity " << t;
        // Whatever survived must parse as empty-or-invalid, never as
        // a journal with phantom records.
        if (fs::exists(path)) {
            auto rr = jnl::Journal::replay(
                path, 0, [&](std::uint64_t, const jnl::Event &) {
                    FAIL() << "phantom record";
                });
            EXPECT_EQ(rr.records, 0u);
        }
    }
}

TEST(Durability, FreshStartThenRecover)
{
    TempDir dir("auth_dur_fresh");
    srv::DurabilityConfig cfg{dir.str(), 0};

    auto rec = srv::DurabilityManager::recover(cfg);
    EXPECT_TRUE(rec.freshStart);
    EXPECT_EQ(rec.outcome(), srv::RecoveryOutcome::FreshStart);

    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    {
        srv::DurabilityManager mgr(cfg, db, rec.lastSeq);
        EXPECT_EQ(mgr.generation(), 0u);
        mgr.append(jnl::AuthOutcome{1, true, false});
        mgr.append(jnl::AuthOutcome{1, false, false});
        mgr.sync();
    }
    db.at(1).recordAccept();
    db.at(1).recordReject();

    auto rec2 = srv::DurabilityManager::recover(cfg);
    EXPECT_EQ(rec2.outcome(),
              srv::RecoveryOutcome::SnapshotPlusJournal);
    EXPECT_EQ(rec2.replayedRecords, 2u);
    EXPECT_EQ(rec2.lastSeq, 2u);
    EXPECT_EQ(srv::saveDatabase(rec2.db), srv::saveDatabase(db));
}

TEST(Durability, RotationRetainsTwoGenerations)
{
    TempDir dir("auth_dur_rotate");
    srv::DurabilityConfig cfg{dir.str(), 0};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    srv::DurabilityManager mgr(cfg, db, 0);
    for (int round = 0; round < 4; ++round) {
        mgr.append(jnl::AuthOutcome{1, true, false});
        db.at(1).recordAccept();
        mgr.rotate(db);
    }
    EXPECT_EQ(mgr.generation(), 4u);
    EXPECT_EQ(mgr.stats().rotations, 5u); // Startup + four manual.

    // Only generations 3 and 4 remain on disk.
    for (std::uint64_t g = 0; g < 3; ++g) {
        EXPECT_FALSE(fs::exists(
            srv::DurabilityManager::snapshotPath(dir.str(), g)));
        EXPECT_FALSE(fs::exists(
            srv::DurabilityManager::journalPath(dir.str(), g)));
    }
    EXPECT_TRUE(fs::exists(
        srv::DurabilityManager::snapshotPath(dir.str(), 3)));
    EXPECT_TRUE(fs::exists(
        srv::DurabilityManager::snapshotPath(dir.str(), 4)));

    auto rec = srv::DurabilityManager::recover(cfg);
    EXPECT_EQ(rec.generation, 4u);
    EXPECT_EQ(rec.lastSeq, 4u);
    EXPECT_EQ(srv::saveDatabase(rec.db), srv::saveDatabase(db));
}

TEST(Durability, AutomaticRotationBudget)
{
    TempDir dir("auth_dur_budget");
    srv::DurabilityConfig cfg{dir.str(), 3};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    srv::DurabilityManager mgr(cfg, db, 0);
    for (int k = 0; k < 2; ++k)
        mgr.append(jnl::AuthOutcome{1, true, false});
    mgr.maybeRotate(db);
    EXPECT_EQ(mgr.generation(), 0u); // Budget of 3 not yet spent.
    mgr.append(jnl::AuthOutcome{1, true, false});
    mgr.maybeRotate(db);
    EXPECT_EQ(mgr.generation(), 1u);
}

TEST(Durability, FallbackToPreviousSnapshot)
{
    TempDir dir("auth_dur_fallback");
    srv::DurabilityConfig cfg{dir.str(), 0};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    {
        srv::DurabilityManager mgr(cfg, db, 0);
        mgr.append(jnl::AuthOutcome{1, true, false});
        db.at(1).recordAccept();
        mgr.rotate(db); // Generation 1 snapshot embeds the outcome.
        mgr.append(jnl::AuthOutcome{1, false, false});
        db.at(1).recordReject();
        mgr.sync();
    }

    // Corrupt the newest snapshot: recovery must fall back to
    // generation 0 and reach the same final state by replaying the
    // retained journal chain (journal 0 then journal 1).
    auto snap = srv::DurabilityManager::snapshotPath(dir.str(), 1);
    auto bytes = readFile(snap);
    bytes[bytes.size() / 2] ^= 0x5A;
    writeFile(snap, bytes);

    auto rec = srv::DurabilityManager::recover(cfg);
    EXPECT_EQ(rec.outcome(), srv::RecoveryOutcome::FallbackSnapshot);
    EXPECT_EQ(rec.snapshotFallbacks, 1u);
    EXPECT_EQ(rec.generation, 0u);
    EXPECT_EQ(rec.lastSeq, 2u);
    EXPECT_EQ(srv::saveDatabase(rec.db), srv::saveDatabase(db));
}

TEST(Durability, JournalsWithoutSnapshotRejected)
{
    TempDir dir("auth_dur_nosnap");
    srv::DurabilityConfig cfg{dir.str(), 0};
    auto log = jnl::Journal::create(
        srv::DurabilityManager::journalPath(dir.str(), 0), 0);
    log.append(1, jnl::DeviceUnlocked{1});
    log.sync();
    log.close();
    EXPECT_THROW(srv::DurabilityManager::recover(cfg),
                 proto::DecodeError);
}

TEST(Durability, TornTailTruncatedOnRecovery)
{
    TempDir dir("auth_dur_torn");
    srv::DurabilityConfig cfg{dir.str(), 0};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    {
        srv::DurabilityManager mgr(cfg, db, 0);
        mgr.append(jnl::AuthOutcome{1, true, false});
        mgr.append(jnl::AuthOutcome{1, true, false});
        mgr.sync();
    }
    auto jpath = srv::DurabilityManager::journalPath(dir.str(), 0);
    auto bytes = readFile(jpath);
    bytes.resize(bytes.size() - 3); // Tear the final record.
    writeFile(jpath, bytes);

    auto rec = srv::DurabilityManager::recover(cfg);
    EXPECT_TRUE(rec.tornTailTruncated);
    EXPECT_EQ(rec.replayedRecords, 1u);
    EXPECT_EQ(rec.lastSeq, 1u);
    // The torn bytes are gone: a second recovery is clean.
    auto rec2 = srv::DurabilityManager::recover(cfg);
    EXPECT_FALSE(rec2.tornTailTruncated);
    EXPECT_EQ(rec2.replayedRecords, 1u);
    EXPECT_LT(readFile(jpath).size(), bytes.size());
}

TEST(Durability, RemapOutcomesCollected)
{
    TempDir dir("auth_dur_remap");
    srv::DurabilityConfig cfg{dir.str(), 0};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    {
        srv::DurabilityManager mgr(cfg, db, 0);
        mgr.append(jnl::RemapPrepared{1, 100});
        mgr.append(jnl::RemapCommitted{1, 100, sampleKey("new")});
        mgr.append(jnl::RemapPrepared{1, 101});
        mgr.append(jnl::RemapRejected{1, 101});
        mgr.sync();
    }
    auto rec = srv::DurabilityManager::recover(cfg);
    ASSERT_EQ(rec.remapOutcomes.size(), 2u);
    EXPECT_EQ(rec.remapOutcomes[0],
              (std::pair<std::uint64_t, bool>{100, true}));
    EXPECT_EQ(rec.remapOutcomes[1],
              (std::pair<std::uint64_t, bool>{101, false}));
    EXPECT_EQ(rec.db.at(1).mapKey(), sampleKey("new"));
}

TEST(Durability, StatsPublished)
{
    TempDir dir("auth_dur_stats");
    srv::DurabilityConfig cfg{dir.str(), 0};
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));

    srv::DurabilityManager mgr(cfg, db, 0);
    mgr.append(jnl::AuthOutcome{1, true, false});
    mgr.sync();
    mgr.sync(); // Clean: must not double-count.

    authenticache::util::StatsRegistry reg;
    mgr.collectStats(reg, "server");
    EXPECT_EQ(reg.getInt("server.durability", "journal_appends"), 1u);
    EXPECT_EQ(reg.getInt("server.durability", "fsyncs"), 1u);
    EXPECT_EQ(reg.getInt("server.durability", "snapshot_rotations"),
              1u);
    EXPECT_EQ(reg.getInt("server.durability", "generation"), 0u);
    EXPECT_EQ(reg.getInt("server.durability", "last_sequence"), 1u);
}
