/**
 * @file
 * Deterministic in-process transport: the exact TransportCore
 * admission/shed/batch machinery of the socket transport, but over
 * in-memory byte pipes instead of TCP.
 *
 * The determinism contract: given the same sequence of client writes
 * (bytes and order), the same pump() cadence, and the same
 * TransportConfig, every observable -- replies, reject bytes, counter
 * values, connection fates -- is bit-identical across runs and across
 * ServerFrontEnd pool widths. Everything the transport does is
 * single-threaded and iterates connections in ascending id order; the
 * only parallel stage is handleBatch, which is bit-identical at any
 * thread count by its own contract. This is what lets the fault-sweep
 * and replay suites drive the real wire stack without sockets, and
 * the shed-determinism test compare counter transcripts across
 * seeded runs.
 *
 * Backpressure is modeled faithfully: pump() moves bytes from a
 * client's outbox into the core only while the core wants to read
 * that connection (queue below bound); the rest stay in the outbox,
 * exactly like bytes stalled in a TCP send buffer.
 */

#ifndef AUTH_NET_LOOPBACK_HPP
#define AUTH_NET_LOOPBACK_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"

namespace authenticache::net {

class LoopbackTransport : public Transport
{
  public:
    /** Test-side handle to one loopback connection. */
    class Client
    {
      public:
        std::uint64_t id() const { return connId; }

        /** Queue raw bytes toward the server (a TCP send). */
        void write(std::span<const std::uint8_t> data);

        /** Frame and queue one message on @p stream. */
        void sendMessage(std::uint64_t stream,
                         const protocol::Message &m);

        /** Half-close: no more client bytes; server drains then
         *  closes (an orderly FIN). */
        void closeWrite() { writeClosed = true; }

        /** Abortive close: unsent bytes vanish, the server sees EOF
         *  immediately (a mid-stream RST). */
        void abort();

        /** Decoded server->client messages, in arrival order. */
        std::vector<std::pair<std::uint64_t, protocol::Message>>
        readMessages();

        /** Raw undecoded server bytes (wire-level assertions). */
        std::vector<std::uint8_t> takeRawBytes();

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

        std::uint64_t connId = 0;
        /** The server side; null once drain() has reaped it. */
        TransportCore::Conn *conn = nullptr;
        std::vector<std::uint8_t> outbox; ///< client -> server bytes
        std::size_t outHead = 0;
        std::vector<std::uint8_t> inbox; ///< server -> client bytes
        WireDecoder down; ///< client-side decoder of @c inbox
        bool writeClosed = false;
        bool aborted = false;
    };

    LoopbackTransport(server::ServerFrontEnd &front,
                      const TransportConfig &config);
    ~LoopbackTransport() override;

    /** Open a connection. Refused (returns nullptr) after drain(). */
    Client *connect();

    /**
     * One deterministic service cycle, connections in ascending id
     * order: move client bytes into the core (respecting
     * backpressure), deliver EOFs, run one batch, copy reply bytes to
     * client inboxes. @return frames serviced.
     */
    std::size_t pump(util::ThreadPool &pool) override;

    /** Pump until no admitted or deliverable work remains. */
    void pumpUntilIdle(util::ThreadPool &pool);

    /**
     * Service admitted work, close and reap every connection. Client
     * handles stay valid: they read as server-closed, and a later
     * pump() or idle() skips them.
     */
    void drain(util::ThreadPool &pool) override;

    const TransportCounters &counters() const override
    {
        return core.counters();
    }

    bool idle() const override;

    TransportCore &transportCore() { return core; }

  private:
    /** Move outbox bytes into the core while it wants them. */
    void feed(Client &client);

    TransportCore core;
    std::map<std::uint64_t, std::unique_ptr<Client>> clients;
    bool accepting = true;
};

} // namespace authenticache::net

#endif // AUTH_NET_LOOPBACK_HPP
