/**
 * @file
 * Sharded session state for the authentication server.
 *
 * The SessionManager owns N independent session shards. Devices hash
 * to shards by device id, and every nonce a shard issues carries the
 * shard index in its low bits, so nonce-keyed frames (responses,
 * remap acks) route back to the owning shard in O(1) with no global
 * index. Each shard has its own mutex, pending-auth / pending-remap
 * tables, completed-nonce replay cache, deadline wheel, per-device
 * RNG streams, and counters -- frames for distinct devices on
 * distinct shards are serviced concurrently with zero shared state.
 *
 * Determinism recipe (the contract the batch front end relies on):
 *  - all per-device randomness comes from util::Rng::forStream(seed,
 *    deviceId), so challenge/nonce streams depend only on the device,
 *    never on cross-device interleaving or the thread count;
 *  - sessions opened by a batch are ranked by a deterministic open
 *    ordinal (batch base + frame index), and the global pending cap
 *    evicts strictly oldest-ordinal-first at batch boundaries;
 *  - expiry (GC) runs single-threaded over shards in index order.
 */

#ifndef AUTH_SERVER_SESSION_MANAGER_HPP
#define AUTH_SERVER_SESSION_MANAGER_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/challenge.hpp"
#include "crypto/key.hpp"
#include "protocol/messages.hpp"
#include "server/config.hpp"
#include "server/journal.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/stats_registry.hpp"

namespace authenticache::server {

/** An outstanding authentication challenge. */
struct PendingAuth
{
    std::uint64_t deviceId = 0;
    core::Response expected;
    core::Challenge challenge;  ///< Kept for idempotent re-issue.
    std::uint64_t deadline = 0; ///< Absolute step; 0 = no expiry.
};

/** An outstanding remap exchange awaiting the client's ack. */
struct PendingRemap
{
    std::uint64_t deviceId = 0;
    crypto::Key256 newKey;
    std::uint64_t deadline = 0;
};

/**
 * One long-lived continuous-authentication session. Unlike
 * PendingAuth these are deliberately exempt from the pending-session
 * cap and the deadline GC: a heartbeat session lives until the device
 * is revoked, forced to re-enroll, or explicitly stopped, and its
 * cadence runs off the heartbeatWheel instead.
 */
struct HeartbeatSession
{
    std::uint64_t deviceId = 0;
    std::uint64_t seq = 0;         ///< Rounds issued so far.
    std::uint64_t activeNonce = 0; ///< Outstanding round; 0 = answered.
    core::Response expected;
    std::uint64_t nextDue = 0;     ///< Step the next round fires at.
    bool stepUp = false;           ///< Next round uses a full challenge.
};

/** Per-shard event counters (published via collectStats). */
struct ShardCounters
{
    std::uint64_t dupRequests = 0;    ///< Dedup hits: challenge re-issued.
    std::uint64_t dupCompletions = 0; ///< Replay-cache hits.
    std::uint64_t expired = 0;        ///< Sessions GC'd by deadline.
    std::uint64_t evicted = 0;        ///< Sessions evicted by the cap.
    std::uint64_t lockouts = 0;       ///< Devices locked by policy.
    std::uint64_t remapsCommitted = 0;
    std::uint64_t remapsRejected = 0;
    // Continuous-authentication trust ledger.
    std::uint64_t trustDecays = 0;     ///< Heartbeats that lowered trust.
    std::uint64_t stepUps = 0;         ///< Escalations to full challenges.
    std::uint64_t proactiveRemaps = 0; ///< Remaps the ledger scheduled.
    std::uint64_t revocations = 0;     ///< Devices revoked (policy+admin).
    std::uint64_t heartbeatsClean = 0;
    std::uint64_t heartbeatsMarginal = 0;
    std::uint64_t heartbeatsFailed = 0; ///< Rejected or missed rounds.
};

/**
 * One session shard. All members are guarded by mutex; the flows and
 * the front end lock the shard for the duration of each frame they
 * dispatch to it.
 */
struct SessionShard
{
    // Immutable after construction. LINT:allow(lock-annotation)
    unsigned index = 0;

    /** `mutable` so const aggregation APIs can lock; DESIGN.md 5g. */
    mutable util::Mutex mutex;

    std::unordered_map<std::uint64_t, PendingAuth> pendingAuths
        AUTH_GUARDED_BY(mutex);
    std::unordered_map<std::uint64_t, PendingRemap> pendingRemaps
        AUTH_GUARDED_BY(mutex);
    /** Device -> nonce of its outstanding auth challenge. */
    std::unordered_map<std::uint64_t, std::uint64_t> activeAuthByDevice
        AUTH_GUARDED_BY(mutex);
    /** Completed nonce -> the decision/commit originally sent. */
    std::unordered_map<std::uint64_t, protocol::Message> completed
        AUTH_GUARDED_BY(mutex);
    std::deque<std::uint64_t> completedOrder AUTH_GUARDED_BY(mutex);
    /** Deadline wheel: absolute step -> nonce (entries validated
     *  lazily against the live session's current deadline, so a
     *  refreshed deadline simply strands a stale entry). */
    std::multimap<std::uint64_t, std::uint64_t> deadlineWheel
        AUTH_GUARDED_BY(mutex);
    /** Lazily created per-device RNG streams. */
    std::unordered_map<std::uint64_t, util::Rng> deviceRngs
        AUTH_GUARDED_BY(mutex);
    /** Live heartbeat sessions, keyed by device id. */
    std::unordered_map<std::uint64_t, HeartbeatSession> heartbeats
        AUTH_GUARDED_BY(mutex);
    /** Outstanding heartbeat nonce -> device id (proof routing). */
    std::unordered_map<std::uint64_t, std::uint64_t> heartbeatByNonce
        AUTH_GUARDED_BY(mutex);
    /** Cadence wheel: due step -> device id. Entries are validated
     *  lazily against the session's current nextDue, same idiom as
     *  deadlineWheel. */
    std::multimap<std::uint64_t, std::uint64_t> heartbeatWheel
        AUTH_GUARDED_BY(mutex);
    ShardCounters counters AUTH_GUARDED_BY(mutex);

    /**
     * Shard-local write-ahead buffer: flows push the journal events
     * their frame produced (under the shard mutex, so parallel
     * dispatch stays race-free); the front end drains every shard in
     * index order at the batch boundary and syncs the journal before
     * any reply leaves. Empty unless journaling is enabled.
     */
    std::vector<journal::Event> wal AUTH_GUARDED_BY(mutex);

    std::size_t
    pending() const AUTH_REQUIRES(mutex)
    {
        return pendingAuths.size() + pendingRemaps.size();
    }

    /** Schedule a (new or refreshed) deadline for a nonce. */
    void noteDeadline(std::uint64_t nonce, std::uint64_t deadline)
        AUTH_REQUIRES(mutex);

    /** Remember a completed decision/commit for retransmit replies. */
    void cacheCompleted(std::uint64_t nonce, protocol::Message reply,
                        std::size_t cache_size) AUTH_REQUIRES(mutex);

    /** Cached reply for a completed nonce, or nullptr. */
    const protocol::Message *findCompleted(std::uint64_t nonce) const
        AUTH_REQUIRES(mutex);

    /** Remove a finished/evicted auth nonce from the device index. */
    void forgetActiveAuth(std::uint64_t device_id, std::uint64_t nonce)
        AUTH_REQUIRES(mutex);

    /** Drop every pending session whose deadline has passed. */
    void expire(std::uint64_t now) AUTH_REQUIRES(mutex);

    /** Evict one session by nonce. @return something was dropped. */
    bool evict(std::uint64_t nonce) AUTH_REQUIRES(mutex);
};

class SessionManager
{
  public:
    SessionManager(const ServerConfig &config, std::uint64_t seed);

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards.size());
    }

    unsigned shardIndexForDevice(std::uint64_t device_id) const;

    unsigned shardIndexForNonce(std::uint64_t nonce) const
    {
        return static_cast<unsigned>(nonce & shardMask);
    }

    SessionShard &shard(unsigned index) { return *shards[index]; }
    const SessionShard &shard(unsigned index) const
    {
        return *shards[index];
    }

    SessionShard &shardForDevice(std::uint64_t device_id)
    {
        return *shards[shardIndexForDevice(device_id)];
    }

    SessionShard &shardForNonce(std::uint64_t nonce)
    {
        return *shards[shardIndexForNonce(nonce)];
    }

    /**
     * Per-device deterministic RNG stream (created on first use from
     * Rng::forStream(seed, device_id)). Caller holds the shard lock.
     */
    util::Rng &deviceRng(SessionShard &sh, std::uint64_t device_id)
        AUTH_REQUIRES(sh.mutex);

    /**
     * Draw a fresh nonce from @p rng tagged with the shard's index in
     * its low bits, so the nonce routes back to its shard.
     */
    std::uint64_t makeNonce(const SessionShard &sh, util::Rng &rng) const
        AUTH_REQUIRES(sh.mutex);

    /** Bind the simulated clock driving session deadlines (not owned). */
    void bindClock(const util::SimClock *clk) { simClock = clk; }

    /** Deadline for a session opened now (0 when expiry is off). */
    std::uint64_t sessionDeadline() const;

    /** Current step of the bound clock (0 without a clock). */
    std::uint64_t currentStep() const
    {
        return simClock == nullptr ? 0 : simClock->now();
    }

    /** GC every shard against the bound clock (single-threaded). */
    void expireAll();

    /**
     * Reserve @p count deterministic open ordinals for a batch;
     * returns the base (frame k of the batch opens at base + k).
     * Caller-serialized: called only from batch boundaries.
     */
    std::uint64_t reserveOrdinals(std::size_t count);

    /** Rank an opened session for oldest-first cap eviction. */
    void registerOpen(std::uint64_t ordinal, std::uint64_t nonce);

    /**
     * Enforce the global pending cap: evict oldest-ordinal-first
     * until the total pending count is back at the cap.
     * Caller-serialized: called only from batch boundaries.
     */
    void enforceCap();

    // Aggregates (each takes the shard locks briefly).
    std::size_t totalPending() const;
    std::uint64_t sessionsEvicted() const;
    std::uint64_t sessionsExpired() const;
    std::uint64_t duplicateRequests() const;
    std::uint64_t duplicateCompletions() const;
    std::uint64_t remapsCommitted() const;
    std::uint64_t remapsRejected() const;
    std::uint64_t lockouts() const;
    std::uint64_t trustDecays() const;
    std::uint64_t stepUps() const;
    std::uint64_t proactiveRemaps() const;
    std::uint64_t revocations() const;
    std::uint64_t heartbeatsClean() const;
    std::uint64_t heartbeatsMarginal() const;
    std::uint64_t heartbeatsFailed() const;
    std::size_t activeHeartbeats() const;

    /**
     * Publish per-shard counters as "<component>.shard<k>" entries:
     * sessions_active, dedup_hits, replay_cache_hits, gc_evictions,
     * cap_evictions, lockouts.
     */
    void collectStats(util::StatsRegistry &registry,
                      const std::string &component) const;

    const ServerConfig &config() const { return cfg; }

    /**
     * Turn shard-local event journaling on/off. Off (the default)
     * keeps the WAL buffers empty -- zero cost for servers without a
     * durability layer attached.
     */
    void setJournaling(bool on) { journalingOn = on; }
    bool journalingEnabled() const { return journalingOn; }

  private:
    /**
     * Sum one counter across the shards, taking each shard lock in
     * turn. A member pointer instead of a lambda keeps the guarded
     * read inside this (analyzed) function body -- a lambda would be
     * analyzed as a separate, lock-unaware function.
     */
    std::uint64_t
    sumCounter(std::uint64_t ShardCounters::*member) const
    {
        std::uint64_t total = 0;
        for (const auto &sh : shards) {
            util::MutexLock guard(sh->mutex);
            total += sh->counters.*member;
        }
        return total;
    }

    /** Drop stale ordinal entries once the map outgrows the live set. */
    void compactOrdinals();

    const ServerConfig &cfg;
    bool journalingOn = false;
    std::uint64_t masterSeed;
    std::uint64_t shardMask = 0;
    std::vector<std::unique_ptr<SessionShard>> shards;
    const util::SimClock *simClock = nullptr;

    // Open-order bookkeeping for the cap. Only touched from
    // caller-serialized batch boundaries, so no mutex is needed.
    std::map<std::uint64_t, std::uint64_t> pendingByOrdinal;
    std::uint64_t nextOrdinal = 0;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_SESSION_MANAGER_HPP
