/**
 * @file
 * State machine for the server-initiated adaptive remap exchange
 * (RemapRequest -> RemapAck -> RemapCommit, paper Sec 4.4-4.5).
 * Mirrors AuthFlow: operates on a locked session shard, returns a
 * FlowOutput instead of touching a channel. Precondition failures
 * (device without reserved levels, exhausted pair supply) surface as
 * protocol-level ErrorMsg rejects, never as exceptions.
 */

#ifndef AUTH_SERVER_REMAP_FLOW_HPP
#define AUTH_SERVER_REMAP_FLOW_HPP

#include <cstdint>

#include "server/auth_flow.hpp"

namespace authenticache::server {

class RemapFlow
{
  public:
    RemapFlow(SessionManager &sessions_, EnrollmentDatabase &devices_,
              ChallengeGenerator &generator_)
        : sessions(sessions_), devices(devices_), generator(generator_)
    {
    }

    /**
     * Phase 0 (server-initiated): derive a fresh key from a reserved
     * level, open the pending exchange, emit the RemapRequest. Caller
     * holds @p sh's mutex; @p sh is the device's shard. Devices with
     * no reserved levels or an exhausted pair supply get an ErrorMsg
     * reject instead of an exception.
     */
    FlowOutput start(SessionShard &sh, std::uint64_t device_id)
        AUTH_REQUIRES(sh.mutex);

    /**
     * Phase 2: check the client's key-confirmation MAC and commit or
     * reject (two-phase: keys switch only on proof of agreement).
     * Caller holds @p sh's mutex.
     */
    FlowOutput onAck(SessionShard &sh, const protocol::RemapAck &msg)
        AUTH_REQUIRES(sh.mutex);

  private:
    SessionManager &sessions;
    EnrollmentDatabase &devices;
    ChallengeGenerator &generator;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_REMAP_FLOW_HPP
