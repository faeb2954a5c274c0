/**
 * @file
 * Transport layer: admission control, load shedding, and batch
 * assembly between a byte-stream connection substrate and the
 * server's batch front end (ServerFrontEnd::handleBatch).
 *
 * The design follows Apache httpd's HTTP/2 engine-shed pattern
 * (h2_ngn_shed): work is assigned into capacity-bounded queues, the
 * assignment step -- not the worker -- refuses overload, and shutdown
 * drains what was admitted before closing anything. Concretely:
 *
 *  - Each connection owns a bounded request queue
 *    (TransportConfig::perConnectionQueue). When it fills, the
 *    transport stops *reading* that connection: on TCP the kernel
 *    buffer fills and the peer's sends stall -- backpressure travels
 *    the wire for free. Nothing already decoded is thrown away.
 *
 *  - A global in-flight budget (TransportConfig::globalInFlight)
 *    bounds the sum of all queues. A frame decoded while the budget
 *    is exhausted is *shed*: an Overloaded protocol reject goes back
 *    on the frame's own stream and the request is dropped. Shedding
 *    (not global backpressure) keeps one hot connection from stalling
 *    every other tenant of the server. Optionally, the top slice of
 *    the budget is reserved for continuation frames
 *    (TransportConfig::continuationReserve), so overload sheds new
 *    work first and already-started exchanges still complete.
 *
 *  - runBatch() lifts admitted requests round-robin across
 *    connections (ascending connection id, FIFO within each) into one
 *    ServerFrontEnd::handleBatch call, so no connection can starve
 *    another and loopback runs are deterministic.
 *
 * TransportCore is single-threaded by contract: exactly one thread
 * pumps a given transport (ingest -> runBatch -> flush). Parallelism
 * lives inside handleBatch, whose pool threads never touch the
 * connection state or reply sinks (replies are emitted by the
 * sequential merge stage). That keeps the whole layer free of locks
 * and makes loopback outcomes bit-identical at any pool width.
 *
 * Every decoded-but-shed, admitted, stalled, or failed frame is
 * tallied in TransportCounters and published to a StatsRegistry under
 * "server.transport.*" (collectStats).
 */

#ifndef AUTH_NET_TRANSPORT_HPP
#define AUTH_NET_TRANSPORT_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "server/front_end.hpp"
#include "util/stats_registry.hpp"
#include "util/thread_pool.hpp"

namespace authenticache::net {

/** Admission-control and buffering knobs. */
struct TransportConfig
{
    /**
     * Bounded per-connection request queue: decoded frames admitted
     * but not yet batched. A full queue pauses reading (TCP
     * backpressure), it never drops.
     */
    std::size_t perConnectionQueue = 64;

    /**
     * Global in-flight budget: total admitted requests across all
     * connections. Frames decoded past it are shed with an
     * Overloaded reject.
     */
    std::size_t globalInFlight = 4096;

    /** Max frames lifted into one handleBatch call. */
    std::size_t maxBatchFrames = 1024;

    /** Socket/loopback read granularity in bytes. */
    std::size_t readChunkBytes = 16 * 1024;

    /**
     * Per-connection outbound buffer cap. A peer that stops reading
     * while replies accumulate past this is dropped (slow-reader
     * protection); 0 disables.
     */
    std::size_t maxWriteBuffered = 4u << 20;

    /**
     * Continuation-aware shedding (0 disables). When positive, the
     * top @c continuationReserve slots of the global budget are held
     * back for frames isContinuationPayload() marks as continuations
     * of in-progress exchanges; new-work frames are shed once the
     * unreserved slice fills. This protects half-done work from
     * congestion collapse: under sustained overload the server
     * finishes the challenges it already issued instead of minting
     * new ones whose responses would then be shed.
     */
    std::size_t continuationReserve = 0;
};

/** Monotonic tallies of everything the transport did. */
struct TransportCounters
{
    std::uint64_t connectionsOpened = 0;
    std::uint64_t connectionsClosed = 0;
    std::uint64_t bytesIn = 0;       ///< Raw bytes ingested.
    std::uint64_t bytesOut = 0;      ///< Reply bytes queued to the wire.
    std::uint64_t framesIn = 0;      ///< Complete wire frames decoded.
    std::uint64_t framesOut = 0;     ///< Wire frames written (replies + rejects).
    std::uint64_t accepted = 0;      ///< Frames admitted into a queue.
    std::uint64_t shed = 0;          ///< Frames refused with Overloaded.
    std::uint64_t backpressureStalls = 0; ///< Read pauses (queue full).
    std::uint64_t codecErrors = 0;   ///< Connections killed by wire errors.
    std::uint64_t droppedOnClose = 0; ///< Queued frames of dead connections.
    std::uint64_t slowReaderDrops = 0; ///< Connections over maxWriteBuffered.
    std::uint64_t batches = 0;       ///< handleBatch invocations.
    std::uint64_t sinksRetired = 0;  ///< Stream sinks GC'd after a terminal reply.

    /** Canonical one-line rendering (determinism tests compare it). */
    std::string serialize() const;
};

/** The reject sent for a shed request (still one of the 8 message
 *  types: an ErrorMsg with a recognizable reason). */
protocol::ErrorMsg overloadedReject();

/** True when @p m is the transport's Overloaded reject. */
bool isOverloadedReject(const protocol::Message &m);

/**
 * The classifier behind TransportConfig::continuationReserve: true
 * for protocol frames that continue an exchange the server already
 * invested work in (ResponseMsg, RemapAck, RemapCommit,
 * HeartbeatProof).
 */
bool isContinuationPayload(std::span<const std::uint8_t> payload);

/**
 * Shared connection/admission machinery. A transport implementation
 * (LoopbackTransport, EpollTransport) owns one core, feeds it raw
 * bytes per connection, and flushes each connection's outbound buffer
 * to its substrate.
 */
class TransportCore
{
  public:
    class StreamSink;

    /** One logical connection (loopback pipe or TCP socket). */
    struct Conn
    {
        std::uint64_t id = 0;
        int fd = -1; ///< Owning socket, -1 for loopback.
        WireDecoder decoder;
        /** Admitted requests awaiting batch assembly. */
        std::deque<WireFrame> queue;
        /** Outbound wire bytes awaiting the owner's flush. */
        std::vector<std::uint8_t> out;
        std::size_t outHead = 0; ///< Flushed prefix of @c out.
        /** Reply sinks by stream id (stable addresses; see below). */
        std::map<std::uint64_t, StreamSink> streams;
        bool closed = false;
        bool readPaused = false;

        std::size_t pendingOut() const { return out.size() - outHead; }
    };

    /**
     * ReplySink bound to one (connection, stream) pair. Sending a
     * terminal server->client message (AuthDecision, RemapCommit,
     * ErrorMsg) marks the sink retired: the exchange is over, so the
     * core erases the entry from the stream table -- immediately on
     * the shed path, or in the post-batch sweep (never mid-batch,
     * because handleBatch frames hold sink pointers). A later frame
     * on the same stream id simply re-creates the sink, so retirement
     * is invisible to peers; it only keeps long-lived connections
     * from accumulating one table entry per stream ever used.
     */
    class StreamSink : public protocol::ReplySink
    {
      public:
        StreamSink(TransportCore &core_, Conn &conn_,
                   std::uint64_t stream_)
            : core(core_), conn(conn_), stream(stream_)
        {
        }

        void send(const protocol::Message &m) override;

        /** Exchange finished; the core may erase this sink. */
        bool retired() const { return isRetired; }

        /** A new frame reuses this stream: the exchange restarts. */
        void revive() { isRetired = false; }

      private:
        TransportCore &core;
        Conn &conn;
        std::uint64_t stream;
        bool isRetired = false;
    };

    TransportCore(server::ServerFrontEnd &front_,
                  const TransportConfig &config);

    TransportCore(const TransportCore &) = delete;
    TransportCore &operator=(const TransportCore &) = delete;

    /** Open a connection (sequential ids; loopback determinism). */
    Conn &open(int fd = -1);

    /**
     * Close a connection: queued requests are discarded (their sender
     * is gone), buffered output is abandoned. The Conn object stays
     * alive until reap() so in-flight sinks stay valid.
     */
    void close(Conn &conn);

    /** Drop closed connections' state. Call outside runBatch only. */
    void reap();

    /**
     * Feed raw connection bytes: decode complete frames, admit up to
     * the connection/global bounds, shed the rest. Bytes that decode
     * into frames beyond the connection's queue bound stay buffered
     * in the decoder until a later drain. On a wire-codec error the
     * connection is closed (codecErrors).
     */
    void ingest(Conn &conn, std::span<const std::uint8_t> data);

    /**
     * True when the owner should keep reading this connection's
     * substrate: open, decoder healthy, queue below its bound.
     */
    bool wantsRead(const Conn &conn) const;

    /** Owner noticed it had bytes but wantsRead() said stop. */
    void noteBackpressureStall() { ++tally.backpressureStalls; }

    /**
     * Assemble one batch (round-robin across connections) and run it
     * through ServerFrontEnd::handleBatch on @p pool. Replies land in
     * each connection's outbound buffer via its stream sinks.
     * Afterwards, decoders stalled on a full queue are re-drained.
     * @return frames serviced.
     */
    std::size_t runBatch(util::ThreadPool &pool);

    /** No admitted requests waiting anywhere. */
    bool idle() const { return queuedTotal == 0; }

    std::size_t globalQueued() const { return queuedTotal; }
    std::size_t connectionCount() const { return conns.size(); }
    const TransportConfig &config() const { return cfg; }
    const TransportCounters &counters() const { return tally; }

    /** Connections by ascending id (open and closed-but-unreaped). */
    std::map<std::uint64_t, std::unique_ptr<Conn>> &connections()
    {
        return conns;
    }

    const std::map<std::uint64_t, std::unique_ptr<Conn>> &
    connections() const
    {
        return conns;
    }

    /**
     * Publish the counters under "<component>.transport.*"
     * (e.g. server.transport.shed).
     */
    void collectStats(util::StatsRegistry &registry,
                      const std::string &component = "server") const;

  private:
    friend class StreamSink;

    /** Pull decodable frames out of @p conn up to the queue bounds. */
    void drainDecoder(Conn &conn);

    /** Admit or shed one decoded frame. */
    void admit(Conn &conn, WireFrame frame);

    server::ServerFrontEnd &front;
    TransportConfig cfg;
    TransportCounters tally;
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::uint64_t nextId = 1;
    std::size_t queuedTotal = 0;
    bool inBatch = false;
};

} // namespace authenticache::net

#endif // AUTH_NET_TRANSPORT_HPP
