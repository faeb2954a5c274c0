/**
 * @file
 * The Authenticache authentication server facade (paper Sec 2.1,
 * 4.2-4.5, Figures 6-7).
 *
 * The server is wired from composable layers, each in its own header:
 *
 *  - SessionManager  (session_manager.hpp): N independent session
 *    shards -- pending tables, replay cache, deadline wheel, GC,
 *    per-device RNG streams -- plus the global pending-session cap.
 *  - AuthFlow / RemapFlow (auth_flow.hpp / remap_flow.hpp): the
 *    per-message protocol state machines.
 *  - ServerFrontEnd  (front_end.hpp): frame decode, shard routing,
 *    and the parallel batch pipeline (handleBatch), the one frame
 *    entry point.
 *
 * This header keeps the stable public surface: trusted enrollment
 * (capture error maps, install the initial logical-map key), batch
 * servicing, remap and heartbeat initiation, and the aggregate
 * counters, all delegating to the layers above. Frames reach
 * handleBatch through a transport (src/net): sockets via
 * EpollTransport, in-process exchanges via LoopbackTransport, whose
 * device-side agent and exchange drivers live in
 * net/device_agent.hpp.
 */

#ifndef AUTH_SERVER_SERVER_HPP
#define AUTH_SERVER_SERVER_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "firmware/client.hpp"
#include "protocol/channel.hpp"
#include "server/challenge_gen.hpp"
#include "server/config.hpp"
#include "server/database.hpp"
#include "server/front_end.hpp"
#include "server/session_manager.hpp"
#include "server/verifier.hpp"
#include "util/sim_clock.hpp"
#include "util/stats_registry.hpp"
#include "util/thread_pool.hpp"

namespace authenticache::server {

class AuthenticationServer
{
  public:
    AuthenticationServer(const ServerConfig &config, std::uint64_t seed);

    /**
     * Trusted enrollment: boot the device if needed, capture its error
     * maps at the given levels, install a fresh logical-map key, and
     * store the record.
     */
    DeviceRecord &enroll(std::uint64_t device_id,
                         firmware::AuthenticacheClient &client,
                         const std::vector<core::VddMv> &challenge_levels,
                         const std::vector<core::VddMv> &reserved_levels,
                         std::uint32_t sweep_passes = 8);

    /**
     * Enroll with a pre-captured error map (robust enrollment: the
     * factory captures under several environmental conditions and
     * combines with core::combineErrorMaps before enrolling). Still
     * installs the initial key into the live client.
     */
    DeviceRecord &
    enrollWithMap(std::uint64_t device_id, core::ErrorMap map,
                  firmware::AuthenticacheClient &client,
                  const std::vector<core::VddMv> &challenge_levels,
                  const std::vector<core::VddMv> &reserved_levels);

    /**
     * Enroll a fully prepared record (key already set) -- the path
     * used by synthetic fixtures and by restores. A record that has
     * retired no pair gets a fresh pair seed from the server's seed
     * stream (two draws). Journaled like any other enrollment when a
     * durability layer is attached.
     */
    DeviceRecord &enrollRecord(DeviceRecord record);

    /**
     * Re-enroll a device whose silicon has drifted (trusted, like
     * first enrollment): recapture the error maps and issue a fresh
     * key. The old record -- including its pair streams -- is
     * discarded, since the old fingerprint's CRPs no longer describe
     * the device; the new record draws a fresh pair seed.
     */
    DeviceRecord &
    reenroll(std::uint64_t device_id,
             firmware::AuthenticacheClient &client,
             const std::vector<core::VddMv> &challenge_levels,
             const std::vector<core::VddMv> &reserved_levels,
             std::uint32_t sweep_passes = 8);

    /**
     * Service a batch of frames, parallelising across session shards
     * on @p pool. Outcomes are bit-identical at any pool width;
     * replies are emitted to each frame's endpoint in frame order.
     */
    void
    handleBatch(std::span<Frame> frames, util::ThreadPool &pool)
    {
        front.handleBatch(frames, pool);
    }

    /**
     * Bind the simulated clock driving session deadlines (not owned).
     * Without a clock (or with sessionTimeoutSteps == 0) sessions
     * never expire, preserving the pre-reliability behavior.
     */
    void bindClock(const util::SimClock *clk)
    {
        sessionsMgr.bindClock(clk);
    }

    /** Garbage-collect expired sessions against the bound clock. */
    void tick() { sessionsMgr.expireAll(); }

    /**
     * Initiate the adaptive remap exchange for a device; the
     * RemapRequest goes to @p endpoint, the sink of the device's
     * stream.
     */
    void startRemap(std::uint64_t device_id,
                    protocol::ReplySink &endpoint)
    {
        front.startRemap(device_id, endpoint);
    }

    /**
     * Open a continuous-authentication heartbeat session: the server
     * streams periodic low-cost challenges to the device and feeds
     * the verdicts into its trust ledger (ServerConfig::trust). The
     * first challenge is emitted immediately; subsequent rounds fire
     * from tickHeartbeats() on the bound clock's cadence.
     */
    void startHeartbeat(std::uint64_t device_id,
                        protocol::ReplySink &endpoint)
    {
        front.startHeartbeat(device_id, endpoint);
    }

    /**
     * Advance heartbeat cadence to the bound clock: penalize missed
     * rounds, emit due challenges. Call once per clock step (after
     * tick()); drivers without heartbeats can skip it.
     */
    void tickHeartbeats(protocol::ReplySink &endpoint)
    {
        front.tickHeartbeats(endpoint);
    }

    /** Tear down a device's heartbeat session. @return one existed. */
    bool stopHeartbeat(std::uint64_t device_id)
    {
        return front.stopHeartbeat(device_id);
    }

    /**
     * Administrator action: revoke a device outright (journaled).
     * Tears down any live heartbeat session; authentication is
     * refused until unlockDevice().
     */
    void revokeDevice(std::uint64_t device_id);

    /**
     * Administrator action: permanently delete a device's enrollment
     * (journaled as DeviceRemoved and synced before return). Tears
     * down any live heartbeat session first.
     * @return whether the device existed.
     */
    bool removeDevice(std::uint64_t device_id);

    EnrollmentDatabase &database() { return devices; }
    const EnrollmentDatabase &database() const { return devices; }
    const Verifier &verifier() const { return verify; }
    const std::vector<AuthReport> &reports() const
    {
        return front.reports();
    }
    const ServerConfig &config() const { return cfg; }

    /** The session layer (per-shard state and counters). */
    SessionManager &sessions() { return sessionsMgr; }
    const SessionManager &sessions() const { return sessionsMgr; }

    /** The frame-level front end (batch API without the facade). */
    ServerFrontEnd &frontEnd() { return front; }

    /** Outstanding sessions (challenges awaiting a response). */
    std::size_t pendingSessions() const
    {
        return sessionsMgr.totalPending();
    }

    // Session counters summed over the shards (sessions().totals()).
    std::uint64_t remapsCommitted() const
    {
        return sessionsMgr.totals().remapsCommitted;
    }
    std::uint64_t remapsRejected() const
    {
        return sessionsMgr.totals().remapsRejected;
    }
    std::uint64_t sessionsEvicted() const
    {
        return sessionsMgr.totals().evicted;
    }
    std::uint64_t sessionsExpired() const
    {
        return sessionsMgr.totals().expired;
    }
    std::uint64_t duplicateRequests() const
    {
        return sessionsMgr.totals().dupRequests;
    }
    std::uint64_t stepUps() const { return sessionsMgr.totals().stepUps; }
    std::uint64_t proactiveRemaps() const
    {
        return sessionsMgr.totals().proactiveRemaps;
    }
    std::uint64_t revocations() const
    {
        return sessionsMgr.totals().revocations;
    }
    std::uint64_t adminUnlocks() const { return unlockCount; }

    /**
     * Administrator action: clear a device's lockout, revocation and
     * re-enroll flag, restoring trust to the policy ceiling
     * (journaled as DeviceUnlocked + an absolute TrustUpdate).
     */
    void unlockDevice(std::uint64_t device_id);

    /**
     * Attach (or detach, with nullptr) a durability layer: every
     * batch journals its events and syncs before replying, and
     * snapshot rotation runs at batch boundaries. The manager is not
     * owned and must outlive the attachment.
     */
    void attachDurability(DurabilityManager *manager)
    {
        front.attachDurability(manager);
    }

    /** The attached durability layer, or nullptr. */
    DurabilityManager *durability() { return front.durability(); }
    const DurabilityManager *durability() const
    {
        return front.durability();
    }

    /**
     * Replace the whole database (recovery / persistence restore).
     * Only valid before traffic: pending sessions are not rebuilt.
     */
    void adoptDatabase(EnrollmentDatabase db) { devices = std::move(db); }

    /**
     * Seed the completed-nonce replay cache with remap commit
     * decisions recovered from the journal, so a client whose
     * RemapAck raced the crash can retransmit it and still get the
     * original commit (RecoveryResult::remapOutcomes).
     */
    void seedCompletedRemaps(
        const std::vector<std::pair<std::uint64_t, bool>> &outcomes);

  private:
    ServerConfig cfg;
    util::Rng rng; ///< Master stream: enrollment keys only.
    util::Rng pairSeeds; ///< Enrolled records' pair seeds.
    EnrollmentDatabase devices;
    ChallengeGenerator generator;
    Verifier verify;
    SessionManager sessionsMgr;
    ServerFrontEnd front;
    std::uint64_t unlockCount = 0; ///< Admin unlocks (stats).
};

/**
 * Snapshot a server's aggregate counters into a stats registry,
 * including the per-shard session counters (published under
 * "<component>.shard<k>").
 */
void collectServerStats(const AuthenticationServer &server,
                        util::StatsRegistry &registry,
                        const std::string &component = "server");

/**
 * Convenience: challenge levels spaced @p spacing_mv apart starting
 * just above the device's calibrated floor. The device must be booted
 * first -- calling this on an unbooted client is a programming error
 * (std::logic_error), not a protocol condition, since no frame is in
 * flight yet.
 */
std::vector<core::VddMv>
defaultChallengeLevels(const firmware::AuthenticacheClient &client,
                       std::size_t count, double spacing_mv = 10.0);

/**
 * A reserved (remap) level offset between the challenge levels. Same
 * precondition as defaultChallengeLevels: the device must be booted.
 */
core::VddMv
defaultReservedLevel(const firmware::AuthenticacheClient &client);

} // namespace authenticache::server

#endif // AUTH_SERVER_SERVER_HPP
