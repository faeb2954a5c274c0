#include "server/storage.hpp"

#include <algorithm>
#include <fstream>

#include "util/crc32.hpp"

namespace authenticache::server {

namespace {

constexpr std::uint32_t kMagic = 0x42444341; // "ACDB".
constexpr std::uint16_t kVersionLegacy = 1;
constexpr std::uint16_t kVersion = 2; // Adds durability metadata.

} // namespace

/** Befriended accessor for DeviceRecord's private consumed state. */
struct RecordStorageAccess
{
    static void
    encode(protocol::ByteWriter &w, const DeviceRecord &record)
    {
        w.putU64(record.id);
        encodeErrorMap(w, record.map);

        w.putBytes(std::span<const std::uint8_t>(
            record.key.bytes.data(), record.key.bytes.size()));

        w.putU32(static_cast<std::uint32_t>(record.authLevels.size()));
        for (auto level : record.authLevels)
            w.putU32(level);
        w.putU32(
            static_cast<std::uint32_t>(record.remapLevels.size()));
        for (auto level : record.remapLevels)
            w.putU32(level);

        // Canonical order: the consumed sets are unordered in memory,
        // so sort before dumping -- equal logical states must produce
        // byte-identical snapshots (recovery sweeps compare them).
        w.putU32(static_cast<std::uint32_t>(record.consumed.size()));
        for (const auto &[level, pairs] : record.consumed) {
            w.putU32(level);
            w.putU64(pairs.size());
            for (auto pair_key : pairs.sortedKeys())
                w.putU64(pair_key);
        }

        w.putU64(record.mixed.size());
        for (const auto &entry : record.mixed) {
            for (auto v : entry)
                w.putU64(v);
        }

        w.putU64(record.nAccepted);
        w.putU64(record.nRejected);
        w.putU64(record.consecutiveFails);
        w.putU8(record.isLocked ? 1 : 0);

        // Trust ledger (continuous authentication).
        w.putU32(record.trust);
        w.putU32(record.remapsUsed);
        w.putU8(record.isRevoked ? 1 : 0);
        w.putU8(record.reenrollNeeded ? 1 : 0);
    }

    static DeviceRecord
    decode(protocol::ByteReader &r)
    {
        std::uint64_t id = r.getU64();
        core::ErrorMap map = decodeErrorMap(r);

        crypto::Key256 key;
        auto key_bytes = r.getBytes(key.bytes.size());
        std::copy(key_bytes.begin(), key_bytes.end(),
                  key.bytes.begin());

        auto read_levels = [&r]() {
            std::uint32_t count = r.getU32();
            if (count > 4096)
                throw protocol::DecodeError("too many levels");
            std::vector<core::VddMv> levels;
            levels.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i)
                levels.push_back(r.getU32());
            return levels;
        };
        auto auth_levels = read_levels();
        auto remap_levels = read_levels();

        DeviceRecord record(id, std::move(map), auth_levels,
                            remap_levels);
        record.setMapKey(key);

        std::uint32_t consumed_levels = r.getU32();
        for (std::uint32_t i = 0; i < consumed_levels; ++i) {
            core::VddMv level = r.getU32();
            std::uint64_t count = r.getU64();
            // The count is untrusted: size the table only for keys
            // the remaining bytes can actually hold.
            if (count > r.remaining() / sizeof(std::uint64_t))
                throw protocol::DecodeError(
                    "consumed-pair count exceeds snapshot");
            auto &set = record.consumed[level];
            set.reserve(static_cast<std::size_t>(count));
            for (std::uint64_t k = 0; k < count; ++k)
                set.insert(r.getU64());
        }

        std::uint64_t mixed_count = r.getU64();
        for (std::uint64_t i = 0; i < mixed_count; ++i) {
            std::array<std::uint64_t, 4> entry;
            for (auto &v : entry)
                v = r.getU64();
            record.mixed.insert(entry);
        }

        record.nAccepted = r.getU64();
        record.nRejected = r.getU64();
        record.consecutiveFails = r.getU64();
        record.isLocked = r.getU8() != 0;
        record.trust = r.getU32();
        record.remapsUsed = r.getU32();
        record.isRevoked = r.getU8() != 0;
        record.reenrollNeeded = r.getU8() != 0;
        return record;
    }
};

void
encodeErrorMap(protocol::ByteWriter &w, const core::ErrorMap &map)
{
    const auto &geom = map.geometry();
    w.putU64(geom.sizeBytes());
    w.putU32(geom.lineBytes());
    w.putU32(geom.ways());

    auto levels = map.levels();
    w.putU32(static_cast<std::uint32_t>(levels.size()));
    for (auto level : levels) {
        const auto &plane = map.plane(level);
        w.putU32(level);
        w.putU64(plane.errorCount());
        for (const auto &e : plane.errors()) {
            w.putU32(e.set);
            w.putU32(e.way);
        }
    }
}

core::ErrorMap
decodeErrorMap(protocol::ByteReader &r)
{
    std::uint64_t size_bytes = r.getU64();
    std::uint32_t line_bytes = r.getU32();
    std::uint32_t ways = r.getU32();

    core::ErrorMap map(
        [&] {
            try {
                return core::CacheGeometry(size_bytes, line_bytes,
                                           ways);
            } catch (const std::invalid_argument &e) {
                throw protocol::DecodeError(
                    std::string("bad geometry: ") + e.what());
            }
        }());

    std::uint32_t levels = r.getU32();
    if (levels > 4096)
        throw protocol::DecodeError("too many map levels");
    for (std::uint32_t i = 0; i < levels; ++i) {
        core::VddMv level = r.getU32();
        std::uint64_t count = r.getU64();
        if (count > map.geometry().lines())
            throw protocol::DecodeError("error count exceeds cache");
        auto &plane = map.plane(level);
        for (std::uint64_t k = 0; k < count; ++k) {
            sim::LinePoint p;
            p.set = r.getU32();
            p.way = r.getU32();
            if (!map.geometry().contains(p))
                throw protocol::DecodeError("error outside cache");
            plane.add(p);
        }
    }
    return map;
}

void
encodeDeviceRecord(protocol::ByteWriter &w, const DeviceRecord &record)
{
    RecordStorageAccess::encode(w, record);
}

DeviceRecord
decodeDeviceRecord(protocol::ByteReader &r)
{
    return RecordStorageAccess::decode(r);
}

namespace {

std::vector<std::uint8_t>
saveDatabaseVersioned(const EnrollmentDatabase &db,
                      std::uint16_t version, const SnapshotMeta &meta)
{
    protocol::ByteWriter w;
    w.putU32(kMagic);
    w.putU16(version);
    if (version >= 2) {
        w.putU64(meta.generation);
        w.putU64(meta.journalWatermark);
    }
    w.putU32(static_cast<std::uint32_t>(db.size()));

    // Deterministic order: ids are sorted below before any byte is
    // written, so the map's order never reaches the snapshot.
    std::vector<std::uint64_t> ids;
    ids.reserve(db.size());
    // LINT:allow(unordered-iter)
    for (const auto &[id, _] : db.all())
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (auto id : ids)
        encodeDeviceRecord(w, db.at(id));

    std::uint32_t crc = util::crc32(w.bytes());
    w.putU32(crc);
    return w.take();
}

} // namespace

std::vector<std::uint8_t>
saveDatabase(const EnrollmentDatabase &db, const SnapshotMeta &meta)
{
    return saveDatabaseVersioned(db, kVersion, meta);
}

std::vector<std::uint8_t>
saveDatabaseV1(const EnrollmentDatabase &db)
{
    return saveDatabaseVersioned(db, kVersionLegacy, {});
}

EnrollmentDatabase
loadDatabase(std::span<const std::uint8_t> blob, SnapshotMeta *meta)
{
    if (meta != nullptr)
        *meta = {};
    if (blob.size() < 4)
        throw protocol::DecodeError("snapshot truncated");
    std::uint32_t stored_crc = 0;
    for (int i = 0; i < 4; ++i) {
        stored_crc |= static_cast<std::uint32_t>(
                          blob[blob.size() - 4 + i])
                      << (8 * i);
    }
    auto body = blob.first(blob.size() - 4);
    if (util::crc32(body) != stored_crc)
        throw protocol::DecodeError("snapshot CRC mismatch");

    protocol::ByteReader r(body);
    if (r.getU32() != kMagic)
        throw protocol::DecodeError("bad snapshot magic");
    std::uint16_t version = r.getU16();
    if (version < kVersionLegacy || version > kVersion)
        throw protocol::DecodeError("unsupported snapshot version");
    if (version >= 2) {
        SnapshotMeta m;
        m.generation = r.getU64();
        m.journalWatermark = r.getU64();
        if (meta != nullptr)
            *meta = m;
    }

    EnrollmentDatabase db;
    std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i)
        db.enroll(decodeDeviceRecord(r));
    r.expectEnd();
    return db;
}

void
saveDatabaseFile(const EnrollmentDatabase &db, const std::string &path,
                 const SnapshotMeta &meta, CrashInjector *inj)
{
    // Atomic replacement: a crash mid-write must never destroy the
    // previous snapshot (the old ofstream+trunc version did exactly
    // that).
    auto blob = saveDatabase(db, meta);
    atomicWriteFile(path, blob, inj, "snapshot");
}

EnrollmentDatabase
loadDatabaseFile(const std::string &path, SnapshotMeta *meta)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw std::runtime_error("loadDatabaseFile: cannot open " +
                                 path);
    auto size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(blob.data()), size);
    if (!in)
        throw std::runtime_error("loadDatabaseFile: read failed");
    return loadDatabase(blob, meta);
}

} // namespace authenticache::server
