/**
 * @file
 * Persistence for the enrollment database.
 *
 * The paper's server keeps each client's error maps "in a secure
 * database" (Sec 2.1, 4.2); this module provides the storage format:
 * a versioned, CRC-protected binary snapshot of every device record --
 * error maps, logical-map key, level roles, pair-stream state, and
 * counters -- so a server can restart without losing the no-reuse
 * guarantees.
 *
 * Format (little endian):
 *
 *   [u32 magic "ACDB"][u16 version]
 *   v2+: [u64 generation][u64 journal watermark]
 *   [u32 record count]
 *     per record: id, geometry, planes, key, levels, pair state,
 *                 counters
 *   [u32 crc32 of everything above]
 *
 * v3 pair state is the record's 128-bit pair seed and one entry per
 * stream that has retired anything, sorted by level pair:
 * [u32 levelA][u32 levelB][u64 counter][u64 n][n x u64 frozen rank].
 * v1/v2 pair state is the consumed sets (per level, sorted pair keys
 * lo << 32 | hi) and the mixed pairs; loading migrates them into
 * frozen ranks, which only such a record consults, and derives the
 * record's pair seed from the SHA-256 of its own v1/v2 bytes, so
 * repeated recoveries agree. v2 added the snapshot's durability
 * metadata: its generation number and the journal sequence number it
 * compacts up to (replay resumes after the watermark); v1 snapshots
 * load with zero metadata. Encoding is canonical -- records sorted by
 * id, streams and frozen ranks in order -- so equal logical states
 * produce byte-identical snapshots (the crash-recovery sweep compares
 * states this way).
 */

#ifndef AUTH_SERVER_STORAGE_HPP
#define AUTH_SERVER_STORAGE_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocol/serialize.hpp"
#include "server/database.hpp"
#include "server/durable_io.hpp"

namespace authenticache::server {

/** Serialize an error map (shared by record encoding and tests). */
void encodeErrorMap(protocol::ByteWriter &w, const core::ErrorMap &map);

/** Deserialize an error map; throws protocol::DecodeError. */
core::ErrorMap decodeErrorMap(protocol::ByteReader &r);

/** Serialize one device record (v3), including pair-stream state. */
void encodeDeviceRecord(protocol::ByteWriter &w,
                        const DeviceRecord &record);

/** How a record's pair state is encoded. */
enum class RecordFormat : std::uint8_t
{
    ConsumedSets, ///< v1/v2 snapshots, v1 journals (read only).
    PairStreams   ///< v3 snapshots, v2 journals.
};

/** Deserialize one device record; throws protocol::DecodeError. */
DeviceRecord
decodeDeviceRecord(protocol::ByteReader &r,
                   RecordFormat format = RecordFormat::PairStreams);

/**
 * Freeze pairs a v1/v2 state retired, each {level_a, line_a, level_b,
 * line_b} in physical identity, as sorted ranks of their streams,
 * which then skip them. Throws protocol::DecodeError for a pair the
 * record cannot hold.
 */
void freezeRetiredPairs(DeviceRecord &record,
                        std::span<const std::array<std::uint64_t, 4>> pairs);

/** Durability metadata carried by v2+ snapshots (zero for v1). */
struct SnapshotMeta
{
    /** Snapshot generation number (rotation counter). */
    std::uint64_t generation = 0;

    /** Journal sequence this snapshot compacts up to (inclusive). */
    std::uint64_t journalWatermark = 0;
};

/** Snapshot the whole database into a byte blob (current format). */
std::vector<std::uint8_t> saveDatabase(const EnrollmentDatabase &db,
                                       const SnapshotMeta &meta = {});

/**
 * Restore a database from a blob (v1 to v3); throws
 * protocol::DecodeError. @p meta, when given, receives the snapshot's
 * durability metadata (zeros for v1).
 */
EnrollmentDatabase loadDatabase(std::span<const std::uint8_t> blob,
                                SnapshotMeta *meta = nullptr);

/**
 * Write a snapshot to a file atomically (temp file + fsync + rename),
 * so a crash mid-write never destroys the previous snapshot. Throws
 * std::runtime_error on I/O failure. @p inj is the crash-injection
 * hook used by the recovery sweep.
 */
void saveDatabaseFile(const EnrollmentDatabase &db,
                      const std::string &path,
                      const SnapshotMeta &meta = {},
                      CrashInjector *inj = nullptr);

/** Load a snapshot from a file (v1 to v3). */
EnrollmentDatabase loadDatabaseFile(const std::string &path,
                                    SnapshotMeta *meta = nullptr);

} // namespace authenticache::server

#endif // AUTH_SERVER_STORAGE_HPP
