/**
 * @file
 * The server's frame-level entry point. The ServerFrontEnd decodes
 * incoming frames, routes them to the owning session shard (by device
 * id for AuthRequests, by the shard tag in the nonce for responses
 * and remap acks), runs the auth/remap flows, and merges the results
 * back in deterministic frame order.
 *
 * handleBatch services frames from distinct devices in parallel on a
 * util::ThreadPool with a fixed pipeline:
 *
 *   GC -> reserve open ordinals -> parallel decode -> group by shard
 *      -> parallel per-shard flow (input order within a shard, under
 *         the shard mutex)
 *      -> sequential merge (replies/reports emitted in frame order,
 *         opened sessions ranked by batch ordinal)
 *      -> global cap enforcement
 *
 * Every source of randomness is a per-device Rng stream and every
 * cross-frame effect happens in the sequential stages, so outcomes
 * are bit-identical at any thread count. handleBatch is the only
 * frame entry point: the socket transport and the in-process
 * loopback (net::LoopbackTransport) both reach it through
 * net::TransportCore::runBatch. Server-initiated messages (remap
 * requests, heartbeat rounds) go out through the ReplySink of the
 * device's stream, the same sink its replies use.
 *
 * Frame dispatch is exception-hardened: a malformed or out-of-phase
 * frame yields a protocol-level ErrorMsg reply, never an escaping
 * exception -- one bad frame cannot take down the verifier.
 */

#ifndef AUTH_SERVER_FRONT_END_HPP
#define AUTH_SERVER_FRONT_END_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "protocol/channel.hpp"
#include "server/auth_flow.hpp"
#include "server/heartbeat_flow.hpp"
#include "server/remap_flow.hpp"
#include "util/thread_pool.hpp"

namespace authenticache::server {

class DurabilityManager;

/**
 * One received frame plus the sink its replies go to: a transport
 * stream sink (src/net), or a benchmark's capture buffer.
 */
struct Frame
{
    std::vector<std::uint8_t> bytes;
    protocol::ReplySink *reply = nullptr;
};

class ServerFrontEnd
{
  public:
    ServerFrontEnd(SessionManager &sessions_,
                   EnrollmentDatabase &devices_,
                   ChallengeGenerator &generator,
                   const Verifier &verifier)
        : sessions(sessions_), devices(devices_),
          auth(sessions_, devices_, generator, verifier),
          remap(sessions_, devices_, generator),
          heartbeat(sessions_, devices_, generator, verifier, remap)
    {
    }

    /**
     * Attach (or detach, with nullptr) the durability layer. While
     * attached, every batch drains the shard-local event buffers into
     * the journal and syncs it *before* any reply is sent
     * (sync-before-reply), and snapshot rotation runs at batch
     * boundaries.
     */
    void attachDurability(DurabilityManager *manager)
    {
        dur = manager;
        sessions.setJournaling(manager != nullptr);
    }

    DurabilityManager *durability() { return dur; }
    const DurabilityManager *durability() const { return dur; }

    /**
     * Service a batch of frames, parallelising across session shards
     * on @p pool. Replies are sent to each frame's endpoint in frame
     * order; outcomes are bit-identical at any pool width.
     */
    void handleBatch(std::span<Frame> frames, util::ThreadPool &pool);

    /** Initiate the adaptive remap exchange for a device. */
    void startRemap(std::uint64_t device_id,
                    protocol::ReplySink &endpoint);

    /** Open a continuous-authentication heartbeat session. */
    void startHeartbeat(std::uint64_t device_id,
                        protocol::ReplySink &endpoint);

    /**
     * Advance every shard's heartbeat cadence to the bound clock:
     * missed rounds are penalized and due sessions get their next
     * challenge, all emitted to @p endpoint. Runs shards in index
     * order, single-threaded, so the trust trajectory is a pure
     * function of the clock and the device streams.
     */
    void tickHeartbeats(protocol::ReplySink &endpoint);

    /** Tear down a device's heartbeat session. @return one existed. */
    bool stopHeartbeat(std::uint64_t device_id);

    /** Completed-authentication reports, in completion order. */
    const std::vector<AuthReport> &reports() const { return log; }

  private:
    /**
     * The shard owning a decoded message: the device's for an
     * AuthRequest, the nonce's tag for a response, remap ack or
     * heartbeat proof. Empty for every other message type.
     */
    std::optional<unsigned> route(const protocol::Message &msg) const;

    /**
     * Run a routed message through its flow on shard @p shard. Takes
     * the shard mutex; never throws (failures become ErrorMsg
     * replies).
     */
    FlowOutput dispatch(unsigned shard, const protocol::Message &msg);

    /**
     * Run @p flow's start() for a device on its shard and merge the
     * output as a one-frame batch replying to @p endpoint. A throw
     * becomes an ErrorMsg prefixed with @p name.
     */
    template <class Flow>
    void initiate(Flow &flow, const char *name, std::uint64_t device_id,
                  protocol::ReplySink &endpoint);

    /** Sequential tail of every batch: journal + emit + rank + cap. */
    void mergeOutputs(std::span<Frame> frames,
                      std::vector<FlowOutput> &outputs,
                      std::uint64_t ordinal_base);

    /**
     * Drain every shard's WAL buffer into the journal (shard index
     * order, so journal bytes are identical at any thread count) and
     * sync. Called before any reply of the batch is emitted.
     */
    void flushJournal();

    SessionManager &sessions;
    EnrollmentDatabase &devices;
    AuthFlow auth;
    RemapFlow remap;
    HeartbeatFlow heartbeat;
    DurabilityManager *dur = nullptr;
    std::vector<AuthReport> log;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_FRONT_END_HPP
