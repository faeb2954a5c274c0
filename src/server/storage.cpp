#include "server/storage.hpp"

#include <algorithm>
#include <fstream>

#include "crypto/sha256.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"

namespace authenticache::server {

namespace {

constexpr std::uint32_t kMagic = 0x42444341; // "ACDB".
constexpr std::uint16_t kVersionLegacy = 1;
constexpr std::uint16_t kVersionMeta = 2; // Adds durability metadata.
constexpr std::uint16_t kVersion = 3;     // Pair streams.

} // namespace

/** Befriended accessor for DeviceRecord's private state. */
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

        // Canonical: streams are kept sorted by level pair and frozen
        // ranks sorted; a stream that has retired nothing is left out,
        // so equal logical states produce byte-identical snapshots.
        w.putU64(record.seed.lo);
        w.putU64(record.seed.hi);
        auto live = [](const PairStream &s) {
            return s.counter > 0 || !s.frozen.empty();
        };
        w.putU32(static_cast<std::uint32_t>(std::count_if(
            record.streams.begin(), record.streams.end(), live)));
        for (const auto &s : record.streams) {
            if (!live(s))
                continue;
            w.putU32(s.levelA);
            w.putU32(s.levelB);
            w.putU64(s.counter);
            w.putU64(s.frozen.size());
            for (auto rank : s.frozen)
                w.putU64(rank);
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
    decode(protocol::ByteReader &r, RecordFormat format)
    {
        const std::size_t start = r.remaining();
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
        if (format == RecordFormat::PairStreams)
            decodeStreams(r, record);
        else
            decodeConsumedSets(r, record);

        record.nAccepted = r.getU64();
        record.nRejected = r.getU64();
        record.consecutiveFails = r.getU64();
        record.isLocked = r.getU8() != 0;
        record.trust = r.getU32();
        record.remapsUsed = r.getU32();
        record.isRevoked = r.getU8() != 0;
        record.reenrollNeeded = r.getU8() != 0;

        if (format == RecordFormat::ConsumedSets) {
            // The pair seed follows the record's own bytes: repeated
            // migrations agree, and it follows neither the map key
            // (which rotates) nor the map alone.
            auto digest =
                crypto::Sha256::hash(r.lastRead(start - r.remaining()));
            protocol::ByteReader d(digest);
            record.seed = {d.getU64(), d.getU64()};
        }
        return record;
    }

    /** v3: the pair seed and one entry per live stream, in order. */
    static void
    decodeStreams(protocol::ByteReader &r, DeviceRecord &record)
    {
        record.seed = {r.getU64(), r.getU64()};
        // Counts are untrusted: checked against the bytes left and the
        // stream's domain before anything is allocated. Streams must
        // be live and in order, ranks ascending: canonical bytes.
        std::uint32_t count = r.getU32();
        if (count > r.remaining() / 24)
            throw protocol::DecodeError("pair stream count exceeds snapshot");
        for (std::uint32_t i = 0; i < count; ++i) {
            PairStream s{r.getU32(), r.getU32(), r.getU64(), {}};
            const std::uint64_t frozen = r.getU64();
            const std::uint64_t domain =
                record.streamDomain(s.levelA, s.levelB);
            if (s.levelA > s.levelB || domain == 0 || s.counter > domain ||
                frozen > domain || frozen > r.remaining() / 8 ||
                (s.counter == 0 && frozen == 0) ||
                (!record.streams.empty() &&
                 std::pair(record.streams.back().levelA,
                           record.streams.back().levelB) >=
                     std::pair(s.levelA, s.levelB)))
                throw protocol::DecodeError("bad pair stream");
            s.frozen.reserve(static_cast<std::size_t>(frozen));
            for (std::uint64_t k = 0; k < frozen; ++k) {
                s.frozen.push_back(r.getU64());
                if (s.frozen.back() >= domain ||
                    (k > 0 && s.frozen[k - 1] >= s.frozen[k]))
                    throw protocol::DecodeError("bad frozen pair");
            }
            record.streams.push_back(std::move(s));
        }
    }

    /** v1/v2: consumed sets and mixed pairs become frozen ranks. */
    static void
    decodeConsumedSets(protocol::ByteReader &r, DeviceRecord &record)
    {
        std::vector<std::array<std::uint64_t, 4>> pairs;
        std::uint32_t consumed_levels = r.getU32();
        for (std::uint32_t i = 0; i < consumed_levels; ++i) {
            core::VddMv level = r.getU32();
            std::uint64_t count = r.getU64();
            if (count > r.remaining() / 8)
                throw protocol::DecodeError(
                    "consumed-pair count exceeds snapshot");
            for (std::uint64_t k = 0; k < count; ++k) {
                std::uint64_t key = r.getU64(); // lo << 32 | hi
                pairs.push_back({level, key >> 32, level, key & 0xffffffff});
            }
        }
        std::uint64_t mixed = r.getU64();
        if (mixed > r.remaining() / 32)
            throw protocol::DecodeError("mixed-pair count exceeds snapshot");
        for (std::uint64_t i = 0; i < mixed; ++i)
            pairs.push_back({r.getU64(), r.getU64(), r.getU64(), r.getU64()});
        freeze(record, pairs);
    }

    static void
    freeze(DeviceRecord &record,
           std::span<const std::array<std::uint64_t, 4>> pairs)
    {
        const std::uint64_t n = record.map.geometry().lines();
        for (const auto &[level_a, a, level_b, b] : pairs) {
            const auto la = static_cast<core::VddMv>(level_a);
            const auto lb = static_cast<core::VddMv>(level_b);
            if (a >= n || b >= n || (la == lb && a == b) ||
                std::max(level_a, level_b) > UINT32_MAX ||
                record.streamDomain(la, lb) == 0)
                throw protocol::DecodeError("retired pair outside the record");
            record.pairStream(la, lb).frozen.push_back(
                la == lb  ? rankPair(std::min(a, b), std::max(a, b))
                : la < lb ? a * n + b
                          : b * n + a);
        }
        for (auto &s : record.streams) {
            std::sort(s.frozen.begin(), s.frozen.end());
            s.frozen.erase(std::unique(s.frozen.begin(), s.frozen.end()),
                           s.frozen.end());
        }
    }
};

void
freezeRetiredPairs(DeviceRecord &record,
                   std::span<const std::array<std::uint64_t, 4>> pairs)
{
    RecordStorageAccess::freeze(record, pairs);
}

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
    if (levels > 0 && map.geometry().lines() > core::kMaxPlaneLines)
        throw protocol::DecodeError("geometry too large for a plane");
    for (std::uint32_t i = 0; i < levels; ++i) {
        core::VddMv level = r.getU32();
        std::uint64_t count = r.getU64();
        if (count > map.geometry().lines())
            throw protocol::DecodeError("error count exceeds cache");
        // Each point takes 8 bytes, so the input bounds the reserve.
        std::vector<sim::LinePoint> points;
        points.reserve(std::min<std::uint64_t>(count, r.remaining() / 8));
        for (std::uint64_t k = 0; k < count; ++k) {
            sim::LinePoint p;
            p.set = r.getU32();
            p.way = r.getU32();
            if (!map.geometry().contains(p))
                throw protocol::DecodeError("error outside cache");
            points.push_back(p);
        }
        map.addSweep(level, points);
    }
    return map;
}

void
encodeDeviceRecord(protocol::ByteWriter &w, const DeviceRecord &record)
{
    RecordStorageAccess::encode(w, record);
}

DeviceRecord
decodeDeviceRecord(protocol::ByteReader &r, RecordFormat format)
{
    return RecordStorageAccess::decode(r, format);
}

std::vector<std::uint8_t>
saveDatabase(const EnrollmentDatabase &db, const SnapshotMeta &meta)
{
    protocol::ByteWriter w;
    w.putU32(kMagic);
    w.putU16(kVersion);
    w.putU64(meta.generation);
    w.putU64(meta.journalWatermark);
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

EnrollmentDatabase
loadDatabase(std::span<const std::uint8_t> blob, SnapshotMeta *meta)
{
    if (meta != nullptr)
        *meta = {};
    if (blob.size() < 4)
        throw protocol::DecodeError("snapshot truncated");
    const std::uint32_t stored_crc =
        util::loadLe32(blob.data() + blob.size() - 4);
    auto body = blob.first(blob.size() - 4);
    if (util::crc32(body) != stored_crc)
        throw protocol::DecodeError("snapshot CRC mismatch");

    protocol::ByteReader r(body);
    if (r.getU32() != kMagic)
        throw protocol::DecodeError("bad snapshot magic");
    std::uint16_t version = r.getU16();
    if (version < kVersionLegacy || version > kVersion)
        throw protocol::DecodeError("unsupported snapshot version");
    if (version >= kVersionMeta) {
        SnapshotMeta m;
        m.generation = r.getU64();
        m.journalWatermark = r.getU64();
        if (meta != nullptr)
            *meta = m;
    }

    EnrollmentDatabase db;
    std::uint32_t count = r.getU32();
    const RecordFormat format = version == kVersion
                                    ? RecordFormat::PairStreams
                                    : RecordFormat::ConsumedSets;
    for (std::uint32_t i = 0; i < count; ++i)
        db.enroll(decodeDeviceRecord(r, format));
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
