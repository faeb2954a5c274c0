#include "server/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "server/storage.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"

namespace authenticache::server {

/**
 * Befriended accessor for replaying absolute counter checkpoints onto
 * a DeviceRecord (the record exposes no setters for its counters).
 */
struct JournalApplyAccess
{
    static void
    setCounters(DeviceRecord &record, std::uint64_t accepted,
                std::uint64_t rejected, std::uint64_t fails)
    {
        record.nAccepted = accepted;
        record.nRejected = rejected;
        record.consecutiveFails = fails;
    }

    /**
     * Counters only rise (a replay over a snapshot that already holds
     * them is a no-op); v1 pair lists are frozen in their streams.
     */
    static void
    retire(DeviceRecord &record, const journal::PairsRetired &e)
    {
        for (const auto &c : e.streams) {
            const std::uint64_t domain =
                record.streamDomain(c.levelA, c.levelB);
            if (domain == 0 || c.counter > domain)
                throw protocol::DecodeError("journal: bad stream counter");
            PairStream &s = record.pairStream(c.levelA, c.levelB);
            s.counter = std::max(s.counter, c.counter);
        }
        freezeRetiredPairs(record, e.legacyPairs);
    }

    static void
    setTrustState(DeviceRecord &record, std::uint32_t trust,
                  std::uint32_t remaps_used, bool reenroll)
    {
        record.trust = trust;
        record.remapsUsed = remaps_used;
        record.reenrollNeeded = reenroll;
    }
};

namespace journal {

namespace {

constexpr std::uint32_t kMagic = 0x4C4A4341; // "ACJL".
constexpr std::uint16_t kVersionLegacy = 1; // Pair lists, v2 records.
constexpr std::size_t kHeaderBytes = 4 + 2 + 8;
constexpr std::size_t kMaxRecordBytes = 1u << 24;

enum EventType : std::uint8_t
{
    kPairsRetired = 0,
    kAuthOutcome = 1,
    kRemapPrepared = 2,
    kRemapCommitted = 3,
    kRemapRejected = 4,
    kDeviceUnlocked = 5,
    kDeviceRemoved = 6,
    kEnrolled = 7,
    kCounterCheckpoint = 8,
    kTrustUpdate = 9,
    kDeviceRevoked = 10,
};

void
requireDevice(const EnrollmentDatabase &db, std::uint64_t id)
{
    if (!db.contains(id))
        throw protocol::DecodeError(
            "journal replay: unknown device " + std::to_string(id));
}

} // namespace

void
encodeEvent(protocol::ByteWriter &w, const Event &event)
{
    std::visit(
        [&w](const auto &e) {
            using T = std::decay_t<decltype(e)>;
            if constexpr (std::is_same_v<T, PairsRetired>) {
                w.putU8(kPairsRetired);
                w.putU64(e.deviceId);
                w.putU32(static_cast<std::uint32_t>(e.streams.size()));
                for (const auto &c : e.streams) {
                    w.putU32(c.levelA);
                    w.putU32(c.levelB);
                    w.putU64(c.counter);
                }
            } else if constexpr (std::is_same_v<T, AuthOutcome>) {
                w.putU8(kAuthOutcome);
                w.putU64(e.deviceId);
                w.putU8(e.accepted ? 1 : 0);
                w.putU8(e.lockedNow ? 1 : 0);
            } else if constexpr (std::is_same_v<T, RemapPrepared>) {
                w.putU8(kRemapPrepared);
                w.putU64(e.deviceId);
                w.putU64(e.nonce);
            } else if constexpr (std::is_same_v<T, RemapCommitted>) {
                w.putU8(kRemapCommitted);
                w.putU64(e.deviceId);
                w.putU64(e.nonce);
                w.putBytes(std::span<const std::uint8_t>(
                    e.newKey.bytes.data(), e.newKey.bytes.size()));
            } else if constexpr (std::is_same_v<T, RemapRejected>) {
                w.putU8(kRemapRejected);
                w.putU64(e.deviceId);
                w.putU64(e.nonce);
            } else if constexpr (std::is_same_v<T, DeviceUnlocked>) {
                w.putU8(kDeviceUnlocked);
                w.putU64(e.deviceId);
            } else if constexpr (std::is_same_v<T, DeviceRemoved>) {
                w.putU8(kDeviceRemoved);
                w.putU64(e.deviceId);
            } else if constexpr (std::is_same_v<T, Enrolled>) {
                w.putU8(kEnrolled);
                w.putU32(static_cast<std::uint32_t>(e.record.size()));
                w.putBytes(e.record);
            } else if constexpr (std::is_same_v<T,
                                                CounterCheckpoint>) {
                w.putU8(kCounterCheckpoint);
                w.putU64(e.deviceId);
                w.putU64(e.accepted);
                w.putU64(e.rejected);
                w.putU64(e.consecutiveFails);
            } else if constexpr (std::is_same_v<T, TrustUpdate>) {
                w.putU8(kTrustUpdate);
                w.putU64(e.deviceId);
                w.putU32(e.trust);
                w.putU32(e.remapBudgetUsed);
                w.putU8(e.reenrollRequired ? 1 : 0);
            } else if constexpr (std::is_same_v<T, DeviceRevoked>) {
                w.putU8(kDeviceRevoked);
                w.putU64(e.deviceId);
            }
        },
        event);
}

Event
decodeEvent(protocol::ByteReader &r, std::uint16_t version)
{
    const bool legacy = version == kVersionLegacy;
    switch (r.getU8()) {
    case kPairsRetired: {
        PairsRetired e;
        e.deviceId = r.getU64();
        std::uint32_t count = r.getU32();
        if (count > r.remaining() / (legacy ? 24 : 16))
            throw protocol::DecodeError("journal: pair count");
        for (std::uint32_t i = 0; i < count; ++i) {
            std::uint32_t level_a = r.getU32();
            std::uint32_t level_b = r.getU32();
            if (!legacy) {
                e.streams.push_back({level_a, level_b, r.getU64()});
                continue;
            }
            e.legacyPairs.push_back(
                {level_a, r.getU64(), level_b, r.getU64()});
        }
        return e;
    }
    case kAuthOutcome: {
        AuthOutcome e;
        e.deviceId = r.getU64();
        e.accepted = r.getU8() != 0;
        e.lockedNow = r.getU8() != 0;
        return e;
    }
    case kRemapPrepared: {
        RemapPrepared e;
        e.deviceId = r.getU64();
        e.nonce = r.getU64();
        return e;
    }
    case kRemapCommitted: {
        RemapCommitted e;
        e.deviceId = r.getU64();
        e.nonce = r.getU64();
        auto bytes = r.getBytes(e.newKey.bytes.size());
        std::copy(bytes.begin(), bytes.end(),
                  e.newKey.bytes.begin());
        return e;
    }
    case kRemapRejected: {
        RemapRejected e;
        e.deviceId = r.getU64();
        e.nonce = r.getU64();
        return e;
    }
    case kDeviceUnlocked:
        return DeviceUnlocked{r.getU64()};
    case kDeviceRemoved:
        return DeviceRemoved{r.getU64()};
    case kEnrolled: {
        Enrolled e;
        std::uint32_t size = r.getU32();
        if (size > kMaxRecordBytes)
            throw protocol::DecodeError("journal: record size");
        e.record = r.getBytes(size);
        e.legacyRecord = legacy;
        return e;
    }
    case kCounterCheckpoint: {
        CounterCheckpoint e;
        e.deviceId = r.getU64();
        e.accepted = r.getU64();
        e.rejected = r.getU64();
        e.consecutiveFails = r.getU64();
        return e;
    }
    case kTrustUpdate: {
        TrustUpdate e;
        e.deviceId = r.getU64();
        e.trust = r.getU32();
        e.remapBudgetUsed = r.getU32();
        e.reenrollRequired = r.getU8() != 0;
        return e;
    }
    case kDeviceRevoked:
        return DeviceRevoked{r.getU64()};
    default:
        throw protocol::DecodeError("journal: unknown event type");
    }
}

void
applyEvent(EnrollmentDatabase &db, const Event &event)
{
    std::visit(
        [&db](const auto &e) {
            using T = std::decay_t<decltype(e)>;
            if constexpr (std::is_same_v<T, PairsRetired>) {
                requireDevice(db, e.deviceId);
                JournalApplyAccess::retire(db.at(e.deviceId), e);
            } else if constexpr (std::is_same_v<T, AuthOutcome>) {
                requireDevice(db, e.deviceId);
                DeviceRecord &record = db.at(e.deviceId);
                if (e.accepted)
                    record.recordAccept();
                else
                    record.recordReject();
                // The lockout decision is replayed, not re-derived:
                // recovered state must not depend on the restarted
                // server's policy config.
                if (e.lockedNow)
                    record.lock();
            } else if constexpr (std::is_same_v<T, RemapPrepared>) {
                requireDevice(db, e.deviceId);
                // Pending state is volatile by design: an in-flight
                // remap whose commit never journaled is simply
                // abandoned (its pairs stay retired).
            } else if constexpr (std::is_same_v<T, RemapCommitted>) {
                requireDevice(db, e.deviceId);
                db.at(e.deviceId).setMapKey(e.newKey);
            } else if constexpr (std::is_same_v<T, RemapRejected>) {
                requireDevice(db, e.deviceId);
            } else if constexpr (std::is_same_v<T, DeviceUnlocked>) {
                requireDevice(db, e.deviceId);
                db.at(e.deviceId).unlock();
            } else if constexpr (std::is_same_v<T, DeviceRemoved>) {
                requireDevice(db, e.deviceId);
                db.remove(e.deviceId);
            } else if constexpr (std::is_same_v<T, Enrolled>) {
                protocol::ByteReader r(e.record);
                DeviceRecord record = decodeDeviceRecord(
                    r, e.legacyRecord ? RecordFormat::ConsumedSets
                                      : RecordFormat::PairStreams);
                r.expectEnd();
                db.enroll(std::move(record));
            } else if constexpr (std::is_same_v<T,
                                                CounterCheckpoint>) {
                requireDevice(db, e.deviceId);
                JournalApplyAccess::setCounters(
                    db.at(e.deviceId), e.accepted, e.rejected,
                    e.consecutiveFails);
            } else if constexpr (std::is_same_v<T, TrustUpdate>) {
                requireDevice(db, e.deviceId);
                JournalApplyAccess::setTrustState(
                    db.at(e.deviceId), e.trust, e.remapBudgetUsed,
                    e.reenrollRequired);
            } else if constexpr (std::is_same_v<T, DeviceRevoked>) {
                requireDevice(db, e.deviceId);
                db.at(e.deviceId).revoke();
            }
        },
        event);
}

Journal::~Journal()
{
    if (fd >= 0)
        ::close(fd);
}

Journal::Journal(Journal &&other) noexcept
    : fd(std::exchange(other.fd, -1)), path(std::move(other.path)),
      inj(other.inj), dirty(other.dirty), written(other.written)
{
}

Journal &
Journal::operator=(Journal &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = std::exchange(other.fd, -1);
        path = std::move(other.path);
        inj = other.inj;
        dirty = other.dirty;
        written = other.written;
    }
    return *this;
}

Journal
Journal::create(const std::string &path, std::uint64_t generation,
                CrashInjector *inj)
{
    if (inj != nullptr)
        inj->point("journal.create");
    FdGuard fd(::open(path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644));
    if (!fd.valid())
        throw std::runtime_error("journal: cannot create " + path +
                                 ": " + std::strerror(errno));

    protocol::ByteWriter w;
    w.putU32(kMagic);
    w.putU16(kJournalVersion);
    w.putU64(generation);
    auto header = w.take();
    writeAllOrCrash(fd.get(), header, inj, "journal.header");
    if (inj != nullptr)
        inj->point("journal.header-fsync");
    fsyncFd(fd.get(), path);
    fsyncParentDir(path);

    Journal out(fd.release(), path, inj);
    out.written = header.size();
    return out;
}

void
Journal::append(std::uint64_t seq, const Event &event)
{
    if (fd < 0)
        throw std::logic_error("journal: append on closed file");

    // [u32 len][u32 crc][payload]: both header fields are written as
    // placeholders and patched once the payload is in place.
    protocol::ByteWriter frame;
    frame.putU32(0);
    frame.putU32(0);
    frame.putU64(seq);
    encodeEvent(frame, event);
    const auto payload =
        std::span<const std::uint8_t>(frame.bytes()).subspan(8);
    frame.patchU32(0, static_cast<std::uint32_t>(payload.size()));
    frame.patchU32(4, util::crc32(payload));
    auto bytes = frame.take();

    // Mark dirty before the write: a crash *during* the write still
    // leaves a torn tail that recovery must (and does) truncate.
    dirty = true;
    writeAllOrCrash(fd, bytes, inj, "journal.append");
    written += bytes.size();
}

bool
Journal::sync()
{
    if (fd < 0 || !dirty)
        return false;
    if (inj != nullptr)
        inj->point("journal.fsync");
    fsyncFd(fd, path);
    dirty = false;
    if (inj != nullptr)
        inj->point("journal.fsync-done");
    return true;
}

void
Journal::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

Journal::ReplayResult
Journal::replay(
    const std::string &path, std::uint64_t after_seq,
    const std::function<void(std::uint64_t, const Event &)> &fn)
{
    ReplayResult out;

    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        out.tornTail = true;
        return out;
    }
    auto size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(blob.data()), size);
    if (!in) {
        out.tornTail = true;
        return out;
    }

    if (blob.size() < kHeaderBytes) {
        out.tornTail = true;
        return out;
    }
    std::uint16_t version = 0;
    {
        protocol::ByteReader r(
            std::span<const std::uint8_t>(blob.data(), kHeaderBytes));
        if (r.getU32() != kMagic) {
            out.tornTail = true;
            return out;
        }
        version = r.getU16();
        if (version < kVersionLegacy || version > kJournalVersion) {
            out.tornTail = true;
            return out;
        }
        out.generation = r.getU64();
    }
    out.headerValid = true;
    out.validBytes = kHeaderBytes;

    std::size_t off = kHeaderBytes;
    while (off < blob.size()) {
        if (blob.size() - off < 8) {
            out.tornTail = true;
            break;
        }
        std::uint32_t len = util::loadLe32(blob.data() + off);
        std::uint32_t crc = util::loadLe32(blob.data() + off + 4);
        if (len > kMaxRecordBytes || blob.size() - off - 8 < len) {
            out.tornTail = true;
            break;
        }
        std::span<const std::uint8_t> payload(blob.data() + off + 8,
                                              len);
        if (util::crc32(payload) != crc) {
            out.tornTail = true;
            break;
        }

        std::uint64_t seq = 0;
        Event event;
        try {
            protocol::ByteReader r(payload);
            seq = r.getU64();
            event = decodeEvent(r, version);
            r.expectEnd();
        } catch (const protocol::DecodeError &) {
            // CRC-valid but undecodable: corruption, not a torn
            // write; stop here and let recovery keep the prefix.
            out.tornTail = true;
            break;
        }

        if (seq > after_seq) {
            fn(seq, event);
            ++out.records;
            out.lastSeq = seq;
        }
        off += 8 + len;
        out.validBytes = off;
    }
    return out;
}

} // namespace journal

} // namespace authenticache::server
