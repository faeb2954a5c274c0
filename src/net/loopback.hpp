/**
 * @file
 * Deterministic in-process transport: the exact TransportCore
 * admission/shed/batch machinery of the socket transport, but over
 * in-memory byte pipes instead of TCP. It is the one in-process
 * delivery path: every simulated exchange (the device agent's
 * runExchange drivers, the fault sweep, the replay and wiretap
 * attacks, the examples and the CLI) reaches the server through
 * TransportCore::runBatch -> ServerFrontEnd::handleBatch, as socket
 * frames do.
 *
 * The simulated wire also carries the threat model's observers and
 * faults (protocol/channel.hpp): a Transcript tap and a seeded
 * FaultPlan. Both act on message payloads, under one global send
 * ordinal that counts both directions. Client->server, a payload is
 * tapped and faulted before it is framed; server->client, after it is
 * deframed. So a Corrupt fault damages the payload inside a valid
 * wire frame -- the server answers it with a "decode:" ErrorMsg on
 * the same stream, and the connection stays open. Delay faults are
 * held until the bound SimClock reaches their release step.
 *
 * The determinism contract: given the same sequence of client writes
 * (bytes and order), the same pump() cadence, the same TransportConfig
 * and the same fault plan, every observable -- replies, reject bytes,
 * counter values, connection fates, the transcript -- is bit-identical
 * across runs and across ServerFrontEnd pool widths. Everything the
 * transport does is single-threaded and iterates connections in
 * ascending id order; the only parallel stage is handleBatch, which is
 * bit-identical at any thread count by its own contract.
 *
 * Backpressure is modeled faithfully: pump() moves bytes from a
 * client's outbox into the core only while the core wants to read
 * that connection (queue below bound); the rest stay in the outbox,
 * exactly like bytes stalled in a TCP send buffer.
 */

#ifndef AUTH_NET_LOOPBACK_HPP
#define AUTH_NET_LOOPBACK_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "protocol/channel.hpp"
#include "util/sim_clock.hpp"

namespace authenticache::net {

class LoopbackTransport
{
  public:
    /** Client-side handle to one loopback connection. */
    class Client
    {
      public:
        std::uint64_t id() const { return connId; }

        /** Frame and queue one message on @p stream. */
        void sendMessage(std::uint64_t stream,
                         const protocol::Message &m);

        /**
         * Frame and queue an already-encoded message payload on
         * @p stream: a replayed capture, or deliberately malformed
         * payload bytes. It passes the tap and the fault plan like
         * sendMessage.
         */
        void sendPayload(std::uint64_t stream,
                         std::vector<std::uint8_t> payload);

        /**
         * The next server->client message on any stream, if one has
         * been delivered. A payload damaged by a Corrupt fault throws
         * protocol::DecodeError (the frame is consumed).
         */
        std::optional<protocol::Message> receive();

        /** Every delivered server->client message, in arrival
         *  order, with its stream. */
        std::vector<std::pair<std::uint64_t, protocol::Message>>
        readMessages();

        /** The delivered server->client frames as wire bytes,
         *  undecoded (wire-level assertions). */
        std::vector<std::uint8_t> takeRawBytes();

        /**
         * The server's reply sink for @p stream on this connection.
         * Messages the server pushes (remap requests, heartbeat
         * rounds) go through it, so they are framed, tapped and
         * faulted like replies; on a closed connection they are
         * dropped. Throws std::logic_error after drain().
         */
        protocol::ReplySink &sink(std::uint64_t stream);

        /** Client bytes not yet accepted by the server
         *  (backpressure observability). */
        std::size_t unsentBytes() const
        {
            return outbox.size() - outHead;
        }

        /** Server closed its side of this connection. */
        bool serverClosed() const
        {
            return conn == nullptr || conn->closed;
        }

      private:
        friend class LoopbackTransport;

        /** Next delivered frame (after pending server output and due
         *  delayed frames have crossed). */
        std::optional<WireFrame> nextFrame();

        LoopbackTransport *owner = nullptr;
        std::uint64_t connId = 0;
        /** The server side; null once drain() has reaped it. */
        TransportCore::Conn *conn = nullptr;
        std::vector<std::uint8_t> outbox; ///< client -> server bytes
        std::size_t outHead = 0;
        WireDecoder down; ///< client-side decoder of server bytes
        std::deque<WireFrame> inbox; ///< delivered server frames
    };

    LoopbackTransport(server::ServerFrontEnd &front,
                      const TransportConfig &config);

    /** Open a connection. Refused (returns nullptr) after drain(). */
    Client *connect();

    /**
     * One deterministic service cycle, connections in ascending id
     * order: release due delayed frames, move client bytes into the
     * core (respecting backpressure), run one batch, deliver reply
     * frames to the clients. @return frames serviced.
     */
    std::size_t pump(util::ThreadPool &pool);

    /** Pump until no admitted or deliverable work remains (frames a
     *  Delay fault holds wait for the clock, not for pumps). */
    void pumpUntilIdle(util::ThreadPool &pool);

    /**
     * Service admitted work, close and reap every connection. Client
     * handles stay valid: they read as server-closed, and a later
     * pump() or idle() skips them.
     */
    void drain(util::ThreadPool &pool);

    const TransportCounters &counters() const
    {
        return core.counters();
    }

    /** Nothing queued, undelivered, or held by a Delay fault. */
    bool idle() const;

    TransportCore &transportCore() { return core; }

    /**
     * Bind the simulated clock driving Delay faults (not owned).
     * Without a clock, delayed frames are delivered immediately.
     */
    void bindClock(const util::SimClock *clk) { clock = clk; }

    /** Install a deterministic fault schedule. */
    void setFaultPlan(protocol::FaultPlan schedule)
    {
        plan = std::move(schedule);
    }

    /** Attach a wiretap (not owned). */
    void attachTranscript(protocol::Transcript *wiretap)
    {
        tap = wiretap;
    }

    /** Faults applied so far from the plan. */
    const protocol::FaultCounters &faultCounters() const
    {
        return faults;
    }

  private:
    /** A frame a Delay fault holds until its release step. */
    struct HeldFrame
    {
        std::uint64_t releaseStep;
        protocol::Direction direction;
        Client *client;
        WireFrame frame;
    };

    /** Move outbox bytes into the core while it wants them. */
    void feed(Client &client);

    /** Deframe the server's pending output for @p client. */
    void collect(Client &client);

    /** One frame crossing the wire: ordinal, tap, fault. */
    void transmit(Client &client, protocol::Direction d,
                  WireFrame frame);

    /** Hand a frame to its receiving side. */
    void deliver(Client &client, protocol::Direction d,
                 WireFrame frame, bool front = false);

    /** Deliver held frames whose release step has passed. */
    void releaseHeld();

    /** Frames held up to this step are due (all of them once the
     *  clock is unbound). */
    std::uint64_t releaseStep() const
    {
        return clock ? clock->now() : ~std::uint64_t{0};
    }

    /** No admitted work, no stalled bytes, no undelivered output, no
     *  held frame due. */
    bool wireIdle() const;

    TransportCore core;
    std::map<std::uint64_t, std::unique_ptr<Client>> clients;
    bool accepting = true;

    protocol::Transcript *tap = nullptr;
    const util::SimClock *clock = nullptr;
    protocol::FaultPlan plan;
    protocol::FaultCounters faults;
    std::vector<HeldFrame> held;
    std::uint64_t nFrames = 0; ///< Send ordinal, both directions.
};

} // namespace authenticache::net

#endif // AUTH_NET_LOOPBACK_HPP
