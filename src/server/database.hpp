/**
 * @file
 * Server-side enrollment database (paper Sec 2.1, 4.2).
 *
 * The Authenticache server does not store CRPs: it stores each
 * client's *error maps* (a compact representation) and generates
 * challenges on demand. It additionally keeps the device's current
 * logical-map key and its pair streams: a 128-bit pair seed plus one
 * counter per stream, which retire every issued pair -- both orderings
 * together (Sec 4.4) -- without storing any pair (pair_stream.hpp).
 */

#ifndef AUTH_SERVER_DATABASE_HPP
#define AUTH_SERVER_DATABASE_HPP

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/error_map.hpp"
#include "core/remap.hpp"
#include "crypto/key.hpp"
#include "server/pair_stream.hpp"

namespace authenticache::server {

/** Everything the server knows about one enrolled device. */
class DeviceRecord
{
  public:
    DeviceRecord(std::uint64_t device_id, core::ErrorMap physical_map,
                 std::vector<core::VddMv> challenge_levels,
                 std::vector<core::VddMv> reserved_levels);

    std::uint64_t deviceId() const { return id; }
    const core::ErrorMap &physicalMap() const { return map; }

    /** Voltage levels usable for ordinary authentication. */
    const std::vector<core::VddMv> &challengeLevels() const
    {
        return authLevels;
    }

    /** Voltage levels reserved for remap key derivation (Sec 4.5). */
    const std::vector<core::VddMv> &reservedLevels() const
    {
        return remapLevels;
    }

    const crypto::Key256 &mapKey() const { return key; }

    /** Rotate the map key; drops the logical views. */
    void setMapKey(const crypto::Key256 &k)
    {
        if (!(k == key))
            views = {};
        key = k;
    }

    /**
     * Challenge level @p level in logical coordinates under the
     * current map key: its permutation and its errors mapped through
     * it (core::LogicalPlane), the view challenges are drawn through
     * and evaluated against. Built on the first use of the level and
     * never changed after; setMapKey() drops every level's view, and
     * the physical map is immutable after enrollment, so key rotation
     * is the only invalidation point. Record copies share the views.
     * Throws std::invalid_argument when @p level is not a challenge
     * level with a plane, and under the identity key, which has no
     * view (its logical planes are the physical ones). Like the rest
     * of the record's mutable state, callers synchronize externally
     * (the session layer holds the device's shard mutex).
     */
    const core::LogicalPlane &logicalPlane(core::VddMv level) const;

    /** Key of every pair stream (drawn at enrollment). */
    const PairSeed &pairSeed() const { return seed; }
    void setPairSeed(const PairSeed &s) { seed = s; }

    /** True once any pair stream exists (re-keying could reissue). */
    bool pairsIssued() const { return !streams.empty(); }

    /**
     * The stream for a level pair (levels in either order; equal for
     * a single-level stream), created on first use. Throws
     * std::invalid_argument when the record has no such stream: a
     * single-level stream needs a challenge or reserved level, a
     * mixed one two distinct challenge levels.
     */
    PairStream &pairStream(core::VddMv level_a, core::VddMv level_b);

    /** Size of that stream's pair domain (0 when there is none). */
    std::uint64_t streamDomain(core::VddMv level_a,
                               core::VddMv level_b) const;

    /** Fresh pairs left in a stream: N - counter - unskipped frozen. */
    std::uint64_t remainingPairs(core::VddMv level_a,
                                 core::VddMv level_b) const;
    std::uint64_t remainingPairs(core::VddMv level) const
    {
        return remainingPairs(level, level);
    }

    /** Pairs retired at a single level. */
    std::uint64_t consumedCount(core::VddMv level) const
    {
        return streamDomain(level, level) - remainingPairs(level);
    }

    // Authentication outcome counters.
    void recordAccept()
    {
        ++nAccepted;
        consecutiveFails = 0;
    }
    void recordReject()
    {
        ++nRejected;
        ++consecutiveFails;
    }
    std::uint64_t accepted() const { return nAccepted; }
    std::uint64_t rejected() const { return nRejected; }

    /** Rejections since the last acceptance (lockout input). */
    std::uint64_t consecutiveFailures() const
    {
        return consecutiveFails;
    }

    // Lockout state (set by the server's policy, cleared by an
    // administrator action). unlock() is the single admin escape
    // hatch: it also clears revocation and restores heartbeat trust,
    // so one command recovers a device from any degradation tier.
    bool locked() const { return isLocked; }
    void lock() { isLocked = true; }
    void unlock(std::uint32_t restored_trust = 100)
    {
        isLocked = false;
        consecutiveFails = 0;
        isRevoked = false;
        reenrollNeeded = false;
        trust = restored_trust;
    }

    // Continuous-authentication trust ledger (TrustPolicy).
    std::uint32_t trustScore() const { return trust; }
    void setTrustScore(std::uint32_t t) { trust = t; }
    std::uint32_t remapBudgetUsed() const { return remapsUsed; }
    void setRemapBudgetUsed(std::uint32_t n) { remapsUsed = n; }
    bool revoked() const { return isRevoked; }
    void revoke() { isRevoked = true; }
    bool reenrollRequired() const { return reenrollNeeded; }
    void setReenrollRequired(bool v) { reenrollNeeded = v; }

  private:
    std::vector<PairStream>::const_iterator
    findStream(core::VddMv level_a, core::VddMv level_b) const;

    // Persistence (server/storage.cpp) snapshots/restores the streams
    // and the counters below, which have no other public setters;
    // journal replay (server/journal.cpp) restores absolute counter
    // checkpoints the same way.
    friend struct RecordStorageAccess;
    friend struct JournalApplyAccess;

    std::uint64_t id;
    core::ErrorMap map;
    std::vector<core::VddMv> authLevels;
    std::vector<core::VddMv> remapLevels;
    crypto::Key256 key;
    // logicalPlane()'s views under `key`, index-aligned with
    // authLevels once any is built (null: not built yet). Copies
    // share the immutable views until either side rotates, which
    // drops its pointers rather than mutating through them.
    mutable std::vector<std::shared_ptr<const core::LogicalPlane>> views;
    PairSeed seed;
    std::vector<PairStream> streams; ///< Sorted by level pair.
    std::uint64_t nAccepted = 0;
    std::uint64_t nRejected = 0;
    std::uint64_t consecutiveFails = 0;
    bool isLocked = false;
    // Trust ledger (heartbeat sessions). The default matches
    // TrustPolicy::max so records predating the ledger replay as
    // fully trusted.
    std::uint32_t trust = 100;
    std::uint32_t remapsUsed = 0;
    bool isRevoked = false;
    bool reenrollNeeded = false;
};

/** The database: device id -> record. */
class EnrollmentDatabase
{
  public:
    /** Add a record; throws if the id is already enrolled. */
    DeviceRecord &enroll(DeviceRecord record);

    bool contains(std::uint64_t device_id) const;

    DeviceRecord &at(std::uint64_t device_id);
    const DeviceRecord &at(std::uint64_t device_id) const;

    std::size_t size() const { return records.size(); }

    /** Remove a record (re-enrollment); @return false if absent. */
    bool remove(std::uint64_t device_id)
    {
        return records.erase(device_id) > 0;
    }

    /** Read-only iteration over all records (reporting/persistence). */
    const std::unordered_map<std::uint64_t, DeviceRecord> &
    all() const
    {
        return records;
    }

  private:
    std::unordered_map<std::uint64_t, DeviceRecord> records;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_DATABASE_HPP
