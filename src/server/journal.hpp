/**
 * @file
 * Write-ahead journal for the authentication server's durable state.
 *
 * Every state-mutating event -- pair retirement, auth outcome (with
 * lockout), remap prepare/commit/reject, enrollment, removal, unlock,
 * counter checkpoints -- is appended as a CRC-framed record *before*
 * the reply that discloses it leaves the server (sync-before-reply).
 * A snapshot rotation (server/durability.hpp) periodically compacts
 * the journal into the storage.cpp snapshot format; recovery replays
 * the journal tail on top of the newest valid snapshot.
 *
 * File format (little endian):
 *
 *   header:  [u32 magic "ACJL"][u16 version][u64 generation]
 *   records: [u32 payload length][u32 crc32(payload)][payload]
 *   payload: [u64 sequence][u8 event type][event fields]
 *
 * Version 2 journals PairsRetired as [u64 device][u32 n] then n x
 * [u32 levelA][u32 levelB][u64 counter after], and Enrolled carries a
 * v3 snapshot record. Version 1 files still replay: their
 * PairsRetired lists n x [u32 levelA][u32 levelB][u64 lineA][u64
 * lineB], each pair frozen in its stream, and their Enrolled records
 * migrate like a v2 snapshot's.
 *
 * A torn final record (short frame or CRC mismatch) marks the crash
 * point: replay stops there and reports the byte offset of the last
 * valid record so recovery can truncate the tail instead of rejecting
 * the file. Sequence numbers are global and contiguous across
 * generations; replay skips records at or below the snapshot's
 * watermark, making it idempotent.
 *
 * Event semantics are chosen so that *every prefix* of the event
 * stream is a consistent database state: pair retirement is separate
 * from (and precedes) the challenge reply, so a crash between append
 * and reply can only over-retire pairs -- the safe direction for the
 * paper's no-reuse guarantee (Sec 4.4) -- and a remap key is switched
 * by a single RemapCommitted record, never partially (Sec 4.5).
 */

#ifndef AUTH_SERVER_JOURNAL_HPP
#define AUTH_SERVER_JOURNAL_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "crypto/key.hpp"
#include "protocol/serialize.hpp"
#include "server/database.hpp"
#include "server/durable_io.hpp"

namespace authenticache::server::journal {

/**
 * A pair stream's counter after a challenge advanced it (levels as in
 * PairStream; equal levels = a single-level stream).
 */
struct StreamCounter
{
    std::uint32_t levelA = 0;
    std::uint32_t levelB = 0;
    std::uint64_t counter = 0;
};

/**
 * Pairs one generated challenge retired (retire-before-reply): one
 * counter per stream it touched. Replay raises each counter to the
 * journaled value, so applying the event twice is harmless.
 */
struct PairsRetired
{
    std::uint64_t deviceId = 0;
    std::vector<StreamCounter> streams;
    /**
     * v1 journals only: the pairs themselves, each {levelA, lineA,
     * levelB, lineB} in physical identity. Replay freezes them.
     */
    std::vector<std::array<std::uint64_t, 4>> legacyPairs;
};

/** A completed authentication: counters plus any lockout decision. */
struct AuthOutcome
{
    std::uint64_t deviceId = 0;
    bool accepted = false;
    bool lockedNow = false; ///< The lockout policy fired on this one.
};

/** A remap exchange opened (pairs retired via PairsRetired). */
struct RemapPrepared
{
    std::uint64_t deviceId = 0;
    std::uint64_t nonce = 0;
};

/** Key confirmation succeeded: the device's map key switched. */
struct RemapCommitted
{
    std::uint64_t deviceId = 0;
    std::uint64_t nonce = 0;
    crypto::Key256 newKey;
};

/** Key confirmation failed: the old key stays. */
struct RemapRejected
{
    std::uint64_t deviceId = 0;
    std::uint64_t nonce = 0;
};

/** Administrator cleared a lockout. */
struct DeviceUnlocked
{
    std::uint64_t deviceId = 0;
};

/** A device record was removed (re-enrollment discards history). */
struct DeviceRemoved
{
    std::uint64_t deviceId = 0;
};

/** A device was enrolled; carries the full record encoding. */
struct Enrolled
{
    std::vector<std::uint8_t> record; ///< encodeDeviceRecord bytes.
    bool legacyRecord = false; ///< v1 journal: consumed-set bytes.
};

/** Absolute counter checkpoint (bounds replay divergence windows). */
struct CounterCheckpoint
{
    std::uint64_t deviceId = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t consecutiveFails = 0;
};

/**
 * Absolute trust-ledger state after a heartbeat verdict or admin
 * unlock. Absolute (not a delta) so replay never depends on the
 * restarted server's TrustPolicy config -- the same rule as
 * AuthOutcome's lockedNow.
 */
struct TrustUpdate
{
    std::uint64_t deviceId = 0;
    std::uint32_t trust = 0;
    std::uint32_t remapBudgetUsed = 0;
    bool reenrollRequired = false;
};

/** The trust policy revoked a device (cleared by DeviceUnlocked). */
struct DeviceRevoked
{
    std::uint64_t deviceId = 0;
};

using Event =
    std::variant<PairsRetired, AuthOutcome, RemapPrepared,
                 RemapCommitted, RemapRejected, DeviceUnlocked,
                 DeviceRemoved, Enrolled, CounterCheckpoint,
                 TrustUpdate, DeviceRevoked>;

/** Serialize one event (type byte + fields). */
void encodeEvent(protocol::ByteWriter &w, const Event &event);

/** Current journal file version (see the file comment). */
constexpr std::uint16_t kJournalVersion = 2;

/**
 * Deserialize one event of a journal file at @p version; throws
 * protocol::DecodeError.
 */
Event decodeEvent(protocol::ByteReader &r,
                  std::uint16_t version = kJournalVersion);

/**
 * Apply one event to a database (replay). Throws
 * protocol::DecodeError when the event references an unknown device
 * or carries an undecodable record -- CRC-valid journals produced by
 * this server never do.
 */
void applyEvent(EnrollmentDatabase &db, const Event &event);

/**
 * The append log. One Journal owns one open generation file; the
 * DurabilityManager rotates to a fresh one at snapshot boundaries.
 * append() buffers nothing: records hit the file immediately, and
 * sync() (an fsync, skipped when clean) makes the batch durable --
 * the front end syncs once per batch, before any reply is sent.
 */
class Journal
{
  public:
    Journal() = default;
    ~Journal();
    Journal(Journal &&other) noexcept;
    Journal &operator=(Journal &&other) noexcept;
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Create a fresh journal file (header written and synced). */
    static Journal create(const std::string &path,
                          std::uint64_t generation,
                          CrashInjector *inj = nullptr);

    /** Append one framed record (not yet durable; see sync()). */
    void append(std::uint64_t seq, const Event &event);

    /** fsync pending appends. @return whether an fsync happened. */
    bool sync();

    /** Close the file (further appends are a logic error). */
    void close();

    bool isOpen() const { return fd >= 0; }
    std::uint64_t bytesWritten() const { return written; }

    /** What a replay pass found in one journal file. */
    struct ReplayResult
    {
        bool headerValid = false;
        std::uint64_t generation = 0;
        std::uint64_t records = 0; ///< Records delivered to the callback.
        std::uint64_t lastSeq = 0; ///< Highest sequence delivered.
        bool tornTail = false;     ///< Trailing torn/corrupt record.
        std::uint64_t validBytes = 0; ///< Offset of the valid prefix.
    };

    /**
     * Scan a journal file, delivering each CRC-valid record with
     * sequence > @p after_seq to @p fn in order. Stops (tornTail) at
     * the first short or CRC-mismatched frame; never throws for file
     * corruption. Exceptions from @p fn propagate.
     */
    static ReplayResult
    replay(const std::string &path, std::uint64_t after_seq,
           const std::function<void(std::uint64_t, const Event &)> &fn);

  private:
    Journal(int fd_, std::string path_, CrashInjector *inj_)
        : fd(fd_), path(std::move(path_)), inj(inj_)
    {
    }

    int fd = -1;
    std::string path;
    CrashInjector *inj = nullptr;
    bool dirty = false;
    std::uint64_t written = 0;
};

} // namespace authenticache::server::journal

#endif // AUTH_SERVER_JOURNAL_HPP
