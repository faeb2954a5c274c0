/**
 * @file
 * Tests for enrollment-database persistence: error-map and record
 * round trips, whole-database snapshots (including pair-stream
 * state, so no-reuse survives a server restart), corruption
 * detection, file I/O, and migration of v1/v2 snapshots and v1
 * journals recorded before pair streams existed (format_fixtures/).
 */

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "server/challenge_gen.hpp"
#include "server/durability.hpp"
#include "server/journal.hpp"
#include "server/storage.hpp"
#include "temp_dir.hpp"
#include "util/crc32.hpp"

namespace srv = authenticache::server;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace crypto = authenticache::crypto;
namespace jnl = authenticache::server::journal;
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
    record.setPairSeed(srv::PairSeed{seed, ~seed});
    srv::ChallengeGenerator gen{Rng(seed)};
    gen.generate(record, 700, 2);
    gen.generateReserved(record, 690, 3);
    record.recordAccept();
    record.recordAccept();
    record.recordReject();
    return record;
}

/** A file under format_fixtures/ (recorded before pair streams). */
std::vector<std::uint8_t>
readFixture(const std::string &name)
{
    std::ifstream in(std::string(AUTH_FORMAT_FIXTURE_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

} // namespace

TEST(Storage, ErrorMapRoundTrip)
{
    auto map = sampleMap(1);
    proto::ByteWriter w;
    srv::encodeErrorMap(w, map);
    proto::ByteReader r(w.bytes());
    auto decoded = srv::decodeErrorMap(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(decoded, map);
}

TEST(Storage, ErrorMapRejectsBadGeometry)
{
    proto::ByteWriter w;
    w.putU64(12345); // Not a valid cache size.
    w.putU32(64);
    w.putU32(8);
    w.putU32(0);
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(srv::decodeErrorMap(r), proto::DecodeError);
}

TEST(Storage, ErrorMapRejectsOutOfRangeError)
{
    proto::ByteWriter w;
    w.putU64(kGeom.sizeBytes());
    w.putU32(kGeom.lineBytes());
    w.putU32(kGeom.ways());
    w.putU32(1);           // One plane.
    w.putU32(700);         // Level.
    w.putU64(1);           // One error...
    w.putU32(kGeom.sets()); // ...at an invalid set.
    w.putU32(0);
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(srv::decodeErrorMap(r), proto::DecodeError);
}

TEST(Storage, ErrorMapRejectsPlaneAboveTwoToThe32Lines)
{
    // 2^33 lines: a valid geometry, but no plane stores its 32-bit
    // line indices, so a map with a level there does not decode.
    proto::ByteWriter w;
    w.putU64(std::uint64_t{1} << 39);
    w.putU32(64);
    w.putU32(8);
    w.putU32(1);   // One plane.
    w.putU32(700); // Level.
    w.putU64(0);   // No errors.
    proto::ByteReader r(w.bytes());
    EXPECT_THROW(srv::decodeErrorMap(r), proto::DecodeError);
}

TEST(Storage, DeviceRecordRoundTrip)
{
    auto record = sampleRecord(42, 7);
    proto::ByteWriter w;
    srv::encodeDeviceRecord(w, record);
    proto::ByteReader r(w.bytes());
    auto decoded = srv::decodeDeviceRecord(r);
    EXPECT_TRUE(r.exhausted());

    EXPECT_EQ(decoded.deviceId(), 42u);
    EXPECT_EQ(decoded.physicalMap(), record.physicalMap());
    EXPECT_EQ(decoded.mapKey(), record.mapKey());
    EXPECT_EQ(decoded.challengeLevels(), record.challengeLevels());
    EXPECT_EQ(decoded.reservedLevels(), record.reservedLevels());
    EXPECT_EQ(decoded.accepted(), 2u);
    EXPECT_EQ(decoded.rejected(), 1u);

    // Pair-stream state survives: both streams continue where the
    // original's do.
    EXPECT_EQ(decoded.pairSeed(), record.pairSeed());
    EXPECT_EQ(decoded.consumedCount(700), 2u);
    EXPECT_EQ(decoded.consumedCount(690), 3u);
    srv::ChallengeGenerator gen(Rng(1));
    EXPECT_EQ(gen.generate(decoded, 700, 16).challenge.bits,
              gen.generate(record, 700, 16).challenge.bits);
    EXPECT_EQ(gen.generateReserved(decoded, 690, 16).challenge.bits,
              gen.generateReserved(record, 690, 16).challenge.bits);
}

TEST(Storage, DatabaseSnapshotRoundTrip)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    db.enroll(sampleRecord(2, 20));
    db.enroll(sampleRecord(3, 30));

    auto blob = srv::saveDatabase(db);
    auto restored = srv::loadDatabase(blob);
    EXPECT_EQ(restored.size(), 3u);
    for (std::uint64_t id : {1, 2, 3}) {
        EXPECT_TRUE(restored.contains(id));
        EXPECT_EQ(restored.at(id).physicalMap(),
                  db.at(id).physicalMap());
        EXPECT_EQ(restored.at(id).mapKey(), db.at(id).mapKey());
    }
}

TEST(Storage, EmptyDatabaseRoundTrip)
{
    srv::EnrollmentDatabase db;
    auto restored = srv::loadDatabase(srv::saveDatabase(db));
    EXPECT_EQ(restored.size(), 0u);
}

TEST(Storage, SnapshotCorruptionDetected)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(1, 10));
    auto blob = srv::saveDatabase(db);

    auto corrupted = blob;
    corrupted[corrupted.size() / 2] ^= 0x5A;
    EXPECT_THROW(srv::loadDatabase(corrupted), proto::DecodeError);

    auto truncated = blob;
    truncated.resize(truncated.size() - 8);
    EXPECT_THROW(srv::loadDatabase(truncated), proto::DecodeError);

    std::vector<std::uint8_t> tiny{1, 2};
    EXPECT_THROW(srv::loadDatabase(tiny), proto::DecodeError);
}

TEST(Storage, BadMagicAndVersionRejected)
{
    srv::EnrollmentDatabase db;
    auto blob = srv::saveDatabase(db);
    // Flip a magic byte and fix the CRC by recomputing a fresh frame:
    // easier to hand-build the bad frame.
    proto::ByteWriter w;
    w.putU32(0xDEADBEEF);
    w.putU16(1);
    w.putU32(0);
    std::uint32_t crc = authenticache::util::crc32(w.bytes());
    w.putU32(crc);
    EXPECT_THROW(srv::loadDatabase(w.bytes()), proto::DecodeError);
}

TEST(Storage, FileRoundTrip)
{
    srv::EnrollmentDatabase db;
    db.enroll(sampleRecord(7, 70));

    TempDir dir("auth_storage_file");
    std::string path = (dir.path / "db.bin").string();
    srv::saveDatabaseFile(db, path);
    auto restored = srv::loadDatabaseFile(path);
    EXPECT_TRUE(restored.contains(7));
    EXPECT_EQ(restored.at(7).physicalMap(), db.at(7).physicalMap());

    EXPECT_THROW(srv::loadDatabaseFile("/nonexistent/nope.bin"),
                 std::runtime_error);
}

TEST(Storage, V1MigrationRoundTrip)
{
    // A v1 snapshot (no durability metadata, consumed sets) recorded
    // before pair streams existed still loads, reporting zero
    // metadata...
    auto v1 = readFixture("v1_snapshot.acdb");
    srv::SnapshotMeta meta{99, 99};
    auto migrated = srv::loadDatabase(v1, &meta);
    EXPECT_EQ(meta.generation, 0u);
    EXPECT_EQ(meta.journalWatermark, 0u);
    EXPECT_EQ(migrated.size(), 2u);

    // ...and re-saving produces a current snapshot that round-trips
    // with the metadata intact and identical record state.
    auto v3 = srv::saveDatabase(migrated, srv::SnapshotMeta{3, 77});
    srv::SnapshotMeta meta2;
    auto restored = srv::loadDatabase(v3, &meta2);
    EXPECT_EQ(meta2.generation, 3u);
    EXPECT_EQ(meta2.journalWatermark, 77u);
    EXPECT_EQ(srv::saveDatabase(restored), srv::saveDatabase(migrated));

    // The v2 snapshot of the same state migrates to the same records.
    auto v2 = srv::loadDatabase(readFixture("snapshot-1.acdb"));
    EXPECT_EQ(srv::saveDatabase(v2), srv::saveDatabase(migrated));
}

TEST(Storage, UnknownVersionRejected)
{
    proto::ByteWriter w;
    w.putU32(0x42444341); // "ACDB".
    w.putU16(4);          // One past the current version.
    w.putU32(0);
    std::uint32_t crc = authenticache::util::crc32(w.bytes());
    w.putU32(crc);
    EXPECT_THROW(srv::loadDatabase(w.bytes()), proto::DecodeError);
}

TEST(Storage, CanonicalSnapshotBytes)
{
    // Equal logical states must serialize identically whatever order
    // their streams were created and their frozen pairs replayed in
    // (recovery compares states by snapshot bytes). A stream that
    // has retired nothing is left out.
    std::vector<std::array<std::uint64_t, 4>> pairs;
    Rng rng(17);
    while (pairs.size() < 3000) {
        auto x = rng.nextBelow(kGeom.lines());
        auto y = rng.nextBelow(kGeom.lines());
        if (x != y)
            pairs.push_back({700, x, 700, y});
    }
    jnl::PairsRetired forward{1, {}, pairs}, backward{1, {}, {}};
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
        backward.legacyPairs.push_back({700, (*it)[3], 700, (*it)[1]});

    srv::EnrollmentDatabase da, dbb;
    da.enroll(srv::DeviceRecord(1, sampleMap(5), {700}, {690}));
    dbb.enroll(srv::DeviceRecord(1, sampleMap(5), {700}, {690}));
    srv::ChallengeGenerator gen(Rng(3));
    jnl::applyEvent(da, forward);
    gen.generate(da.at(1), 700, 64);
    gen.generateReserved(da.at(1), 690, 8);
    gen.generateReserved(dbb.at(1), 690, 8);
    jnl::applyEvent(dbb, backward);
    gen.generate(dbb.at(1), 700, 64);
    EXPECT_THROW(gen.generate(dbb.at(1), 700,
                              dbb.at(1).remainingPairs(700) + 1),
                 std::runtime_error);
    const auto bytes = srv::saveDatabase(da);
    EXPECT_EQ(bytes, srv::saveDatabase(dbb));

    // And the canonical bytes survive a decode/encode round trip.
    auto restored = srv::loadDatabase(bytes);
    EXPECT_EQ(restored.at(1).consumedCount(700),
              da.at(1).consumedCount(700));
    EXPECT_EQ(srv::saveDatabase(restored), bytes);
}

namespace {

/** A record with one live 700 mV stream holding one frozen rank. */
std::vector<std::uint8_t>
frozenRecordBytes(std::size_t &stream_off)
{
    srv::EnrollmentDatabase db;
    srv::DeviceRecord record(1, sampleMap(5), {700}, {690});
    record.setPairSeed(srv::PairSeed{0x5EED5EED5EED5EEDull, 1});
    db.enroll(std::move(record));
    jnl::applyEvent(db, jnl::PairsRetired{1, {{700, 700, 9}},
                                          {{700, 0x5A5, 700, 0x7B7}}});
    proto::ByteWriter w;
    srv::encodeDeviceRecord(w, db.at(1));
    auto bytes = w.take();

    // The stream count follows the seed; the one stream follows it.
    std::vector<std::uint8_t> seed_le(8, 0xED);
    for (int i = 1; i < 8; i += 2)
        seed_le[i] = 0x5E;
    auto at = std::search(bytes.begin(), bytes.end(), seed_le.begin(),
                          seed_le.end());
    EXPECT_NE(at, bytes.end());
    stream_off = static_cast<std::size_t>(at - bytes.begin()) + 16 + 4;
    return bytes;
}

void
patchU(std::vector<std::uint8_t> &bytes, std::size_t off, int width,
       std::uint64_t v)
{
    for (int i = 0; i < width; ++i)
        bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

} // namespace

TEST(Storage, OversizedPairCountRejectedBeforeAllocating)
{
    std::size_t off = 0;
    const auto bytes = frozenRecordBytes(off);
    ASSERT_EQ(bytes[off - 4], 1u); // One stream...
    ASSERT_EQ(bytes[off + 16], 1u); // ...holding one frozen rank.

    // 2^40 ranks would need terabytes if the decoder trusted the
    // count; one past what the remaining bytes hold must fail too,
    // and so must an oversized stream count.
    const std::uint64_t remaining = (bytes.size() - off - 24) / 8;
    for (std::uint64_t count :
         {std::uint64_t{1} << 40, remaining + 1}) {
        auto patched = bytes;
        patchU(patched, off + 16, 8, count);
        proto::ByteReader r(patched);
        EXPECT_THROW(srv::decodeDeviceRecord(r), proto::DecodeError)
            << "count " << count;
    }
    auto patched = bytes;
    patchU(patched, off - 4, 4, 0xFFFFFFFFu);
    proto::ByteReader r(patched);
    EXPECT_THROW(srv::decodeDeviceRecord(r), proto::DecodeError);
}

TEST(Storage, BadPairStreamRejected)
{
    std::size_t off = 0;
    const auto bytes = frozenRecordBytes(off);
    {
        proto::ByteReader r(bytes);
        auto record = srv::decodeDeviceRecord(r);
        EXPECT_TRUE(r.exhausted());
        EXPECT_EQ(record.pairSeed().lo, 0x5EED5EED5EED5EEDull);
    }
    const std::uint64_t domain = kGeom.lines() * (kGeom.lines() - 1) / 2;
    struct Patch
    {
        std::size_t at;
        int width;
        std::uint64_t value;
        const char *what;
    };
    for (const Patch &p : {
             Patch{off, 4, 123, "unknown stream level"},
             Patch{off + 4, 4, 690, "mixed with a reserved level"},
             Patch{off + 8, 8, domain + 1, "counter above N"},
             Patch{off + 24, 8, domain, "frozen rank outside N"},
             Patch{off + 8, 8, 0, "empty stream"},
         }) {
        auto patched = bytes;
        patchU(patched, p.at, p.width, p.value);
        if (std::string(p.what) == "empty stream")
            patchU(patched, off + 16, 8, 0); // With no frozen rank.
        proto::ByteReader r(patched);
        EXPECT_THROW(srv::decodeDeviceRecord(r), proto::DecodeError)
            << p.what;
    }
}

TEST(Storage, AtomicSaveSurvivesCrashMidWrite)
{
    srv::EnrollmentDatabase old_db;
    old_db.enroll(sampleRecord(1, 10));
    srv::EnrollmentDatabase new_db;
    new_db.enroll(sampleRecord(1, 10));
    new_db.enroll(sampleRecord(2, 20));

    TempDir dir("auth_storage_atomic");
    std::string path = (dir.path / "db.bin").string();
    srv::saveDatabaseFile(old_db, path);
    auto old_bytes = srv::saveDatabase(old_db);

    // Kill the writer at every coarse crash opportunity: the live
    // snapshot must stay byte-identical to the old one until the
    // rename, and be the complete new one after it.
    srv::CrashInjector inj;
    inj.disarm();
    srv::saveDatabaseFile(new_db, path, {}, &inj);
    std::uint64_t total = inj.opportunities();
    ASSERT_GT(total, 3u);

    for (std::uint64_t t = 0; t < total; ++t) {
        srv::saveDatabaseFile(old_db, path);
        inj.arm(t);
        bool crashed = false;
        try {
            srv::saveDatabaseFile(new_db, path, {}, &inj);
        } catch (const srv::CrashException &) {
            crashed = true;
        }
        ASSERT_TRUE(crashed) << "opportunity " << t;
        auto loaded = srv::saveDatabase(srv::loadDatabaseFile(path));
        EXPECT_TRUE(loaded == old_bytes ||
                    loaded == srv::saveDatabase(new_db))
            << "torn snapshot at opportunity " << t;
    }
}

// ---------------------------------------------------------------
// Migration of state recorded before pair streams existed:
// format_fixtures/ holds a v2 snapshot (generation 1, watermark 20)
// and the v1 journal after it (an enrollment, pair lists, a key
// rotation), at a 64-line cache, plus retired_pairs.txt: every pair
// that state retired, one "device levelA levelB lineA lineB" line in
// physical identity. The generator never reissues any of them.
// ---------------------------------------------------------------

namespace {

const sim::CacheGeometry kFixtureGeom(4 * 1024);

using Pair = std::array<std::uint64_t, 4>; // level, line, level, line

Pair
canonical(std::uint64_t level_a, std::uint64_t line_a,
          std::uint64_t level_b, std::uint64_t line_b)
{
    std::pair a{level_a, line_a}, b{level_b, line_b};
    if (b < a)
        std::swap(a, b);
    return {a.first, a.second, b.first, b.second};
}

srv::RecoveryResult
recoverFixture()
{
    TempDir dir("auth_fixture_recover");
    for (const char *name : {"snapshot-1.acdb", "journal-1.acjl"}) {
        auto bytes = readFixture(name);
        std::ofstream out(dir.path / name, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    srv::DurabilityConfig cfg;
    cfg.dir = dir.str();
    return srv::DurabilityManager::recover(cfg);
}

/** Draw every remaining pair of every stream, in physical identity. */
std::vector<Pair>
drainAllStreams(srv::DeviceRecord &record)
{
    std::vector<Pair> out;
    const core::LogicalRemap remap(record.mapKey(), kFixtureGeom);
    auto physical = [&](const core::ChallengeBit &bit, bool reserved) {
        auto line = [&](const core::ChallengePoint &p) {
            std::uint64_t l = kFixtureGeom.lineIndex(p.line);
            const auto *perm =
                reserved ? nullptr : remap.permutation(p.vddMv);
            return perm != nullptr ? perm->unmap(l) : l;
        };
        out.push_back(canonical(bit.a.vddMv, line(bit.a), bit.b.vddMv,
                                line(bit.b)));
    };
    srv::ChallengeGenerator gen(Rng(5));
    for (auto level : record.reservedLevels())
        for (const auto &bit :
             gen.generateReserved(record, level,
                                  record.remainingPairs(level))
                 .challenge.bits)
            physical(bit, true);
    const auto &levels = record.challengeLevels();
    for (auto level : levels)
        for (const auto &bit :
             gen.generate(record, level, record.remainingPairs(level))
                 .challenge.bits)
            physical(bit, false);
    auto mixed_left = [&] {
        std::uint64_t left = 0;
        for (auto a : levels)
            for (auto b : levels)
                left += a < b ? record.remainingPairs(a, b) : 0;
        return left;
    };
    // Mixed streams through 1-bit multi-level challenges; a pick of a
    // spent single-level stream throws and retires nothing.
    while (mixed_left() > 0) {
        try {
            physical(gen.generateMultiLevel(record, 1).challenge.bits[0],
                     false);
        } catch (const std::runtime_error &) {
        }
    }
    return out;
}

} // namespace

TEST(Storage, V2SnapshotAndV1JournalRecover)
{
    auto rec = recoverFixture();
    EXPECT_EQ(rec.generation, 1u);
    EXPECT_EQ(rec.replayedRecords, 7u);
    EXPECT_FALSE(rec.tornTailTruncated);
    ASSERT_EQ(rec.db.size(), 3u);

    // Recovery is byte-identical across loads.
    const auto bytes = srv::saveDatabase(rec.db);
    EXPECT_EQ(srv::saveDatabase(recoverFixture().db), bytes);
    EXPECT_EQ(srv::saveDatabase(srv::loadDatabase(bytes)), bytes);

    std::map<std::uint64_t, std::set<Pair>> retired;
    std::istringstream list([] {
        auto raw = readFixture("retired_pairs.txt");
        return std::string(raw.begin(), raw.end());
    }());
    std::uint64_t id, la, lb, a, b;
    while (list >> id >> la >> lb >> a >> b)
        ASSERT_TRUE(retired[id].insert(canonical(la, a, lb, b)).second);
    ASSERT_EQ(retired.size(), 3u);

    for (auto &[device, frozen] : retired) {
        srv::DeviceRecord &record = rec.db.at(device);
        std::uint64_t issued_before = 0, domain = 0;
        std::set<std::pair<core::VddMv, core::VddMv>> streams;
        for (auto l : record.reservedLevels())
            streams.emplace(l, l);
        for (auto x : record.challengeLevels())
            for (auto y : record.challengeLevels())
                streams.emplace(std::min(x, y), std::max(x, y));
        for (const auto &[x, y] : streams) {
            domain += record.streamDomain(x, y);
            issued_before +=
                record.streamDomain(x, y) - record.remainingPairs(x, y);
        }
        EXPECT_EQ(issued_before, frozen.size()) << "device " << device;

        // The whole domain, minus the frozen pairs, exactly once.
        std::set<Pair> drawn;
        for (const Pair &p : drainAllStreams(record)) {
            EXPECT_EQ(frozen.count(p), 0u) << "device " << device;
            EXPECT_TRUE(drawn.insert(p).second) << "device " << device;
        }
        EXPECT_EQ(drawn.size() + frozen.size(), domain)
            << "device " << device;
    }
}
