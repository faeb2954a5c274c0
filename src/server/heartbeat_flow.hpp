/**
 * @file
 * State machine for continuous-authentication heartbeat sessions.
 *
 * A heartbeat session streams periodic low-cost challenges to an
 * enrolled device and feeds the verdicts into a per-device trust
 * ledger (ServerConfig::trust). Trust recovers on clean rounds and
 * decays on marginal or failed ones; crossing the policy thresholds
 * walks the device down a graceful-degradation ladder:
 *
 *   Nominal -> StepUp (full-width challenge next round)
 *           -> RemapScheduled (proactive remap, budget permitting)
 *           -> ReenrollRequired (budget exhausted; auth refused)
 *           -> Revoked (trust exhausted; admin unlock required)
 *
 * Like AuthFlow/RemapFlow, the flow operates on a locked session
 * shard and returns a FlowOutput -- it never touches a channel. Every
 * trust mutation journals an absolute journal::TrustUpdate before the
 * reply that discloses it leaves the server, so recovered trust state
 * replays byte-identically through the PR 4 crash sweep.
 */

#ifndef AUTH_SERVER_HEARTBEAT_FLOW_HPP
#define AUTH_SERVER_HEARTBEAT_FLOW_HPP

#include <cstdint>

#include "server/remap_flow.hpp"

namespace authenticache::server {

class HeartbeatFlow
{
  public:
    HeartbeatFlow(SessionManager &sessions_, EnrollmentDatabase &devices_,
                  ChallengeGenerator &generator_,
                  const Verifier &verifier, RemapFlow &remap_)
        : sessions(sessions_), devices(devices_),
          generator(generator_), verify(verifier), remap(remap_)
    {
    }

    /**
     * Open a heartbeat session for a device and issue round 1.
     * Trust starts at TrustPolicy::initial. Revoked / locked /
     * re-enroll-required devices get an ErrorMsg reject. Caller holds
     * @p sh's mutex; @p sh is the device's shard.
     */
    FlowOutput start(SessionShard &sh, std::uint64_t device_id)
        AUTH_REQUIRES(sh.mutex);

    /**
     * Service a HeartbeatProof on the nonce's shard: verify, classify
     * clean/marginal/failed, adjust the trust ledger, and apply the
     * degradation tier (possibly emitting a RemapRequest or Revoke
     * alongside the TrustUpdate verdict). Caller holds @p sh's mutex.
     */
    FlowOutput onProof(SessionShard &sh,
                       const protocol::HeartbeatProof &msg)
        AUTH_REQUIRES(sh.mutex);

    /**
     * Advance the shard's heartbeat cadence to @p now: rounds whose
     * proof never arrived count as failed (a dead or cloned client
     * drains trust instead of holding it), and due sessions get their
     * next challenge. One FlowOutput per due session, in wheel order,
     * so the front end can rank any proactively opened remap nonces
     * with per-output ordinals. Caller holds @p sh's mutex.
     */
    std::vector<FlowOutput> tick(SessionShard &sh, std::uint64_t now)
        AUTH_REQUIRES(sh.mutex);

  private:
    /** Issue the next challenge round for a live session. */
    void issueRound(SessionShard &sh, HeartbeatSession &session,
                    FlowOutput &out) AUTH_REQUIRES(sh.mutex);

    /**
     * Fold one round's verdict into the trust ledger and apply the
     * degradation tier. @p nonce is the answered round (0 for a
     * missed round, which emits no TrustUpdate reply).
     */
    void applyVerdict(SessionShard &sh, HeartbeatSession &session,
                      std::uint64_t nonce, bool accepted,
                      std::uint32_t hamming_distance, bool marginal,
                      FlowOutput &out) AUTH_REQUIRES(sh.mutex);

    SessionManager &sessions;
    EnrollmentDatabase &devices;
    ChallengeGenerator &generator;
    const Verifier &verify;
    RemapFlow &remap;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_HEARTBEAT_FLOW_HPP
