/**
 * @file
 * Real-socket transport: a level-triggered epoll loop serving TCP
 * connections through the same TransportCore admission machinery as
 * the deterministic loopback.
 *
 * One thread owns the loop (single-threaded pump contract); request
 * parallelism comes from handleBatch's pool. Backpressure maps onto
 * epoll interest: when a connection's request queue fills, its
 * EPOLLIN interest is dropped -- the kernel receive buffer and then
 * the peer's send buffer fill, stalling the peer without a byte of
 * polling -- and restored once a batch drains the queue. EPOLLOUT is
 * subscribed only while reply bytes are actually pending, the
 * standard dance that avoids a busy wake-up per loop.
 *
 * The listener binds 127.0.0.1 on an ephemeral port by default
 * (port() reports it), so tests and benches never collide.
 */

#ifndef AUTH_NET_EPOLL_TRANSPORT_HPP
#define AUTH_NET_EPOLL_TRANSPORT_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "net/transport.hpp"

namespace authenticache::net {

class EpollTransport
{
  public:
    /**
     * Bind + listen on 127.0.0.1:@p port (0 = ephemeral) and set up
     * the epoll instance. Throws std::system_error on any failure.
     */
    EpollTransport(server::ServerFrontEnd &front,
                   const TransportConfig &config,
                   std::uint16_t port = 0);
    ~EpollTransport();

    /** The bound TCP port. */
    std::uint16_t port() const { return boundPort; }

    /**
     * One service cycle: poll (non-blocking), accept, read, admit,
     * run one batch, flush replies, reap dead connections.
     * @return frames serviced.
     */
    std::size_t pump(util::ThreadPool &pool) { return pump(pool, 0); }

    /** As above, blocking in epoll_wait up to @p timeoutMs. */
    std::size_t pump(util::ThreadPool &pool, int timeoutMs);

    /**
     * Graceful shutdown: stop accepting connections, service
     * everything already admitted or buffered, flush replies, then
     * close every connection (the shed pattern's clean drain).
     */
    void drain(util::ThreadPool &pool);

    const TransportCounters &counters() const
    {
        return core.counters();
    }

    /** No queued requests and no undelivered output. */
    bool idle() const;

    std::size_t connectionCount() const
    {
        return core.connectionCount();
    }

    TransportCore &transportCore() { return core; }

  private:
    void acceptPending();
    void readReady(TransportCore::Conn &conn);
    void flushWrites(TransportCore::Conn &conn);
    /** Sync a connection's EPOLLIN/EPOLLOUT interest with its state. */
    void updateInterest(TransportCore::Conn &conn);
    void teardown(TransportCore::Conn &conn);
    void reapClosed();

    TransportCore core;
    int epollFd = -1;
    int listenFd = -1;
    std::uint16_t boundPort = 0;
    bool accepting = true;
    /** Current epoll interest mask per connection fd. */
    std::map<int, std::uint32_t> interest;
    /**
     * Scratch for read(2), readChunkBytes long, reused by every
     * readable event; ingest copies out of it before the next read.
     */
    std::vector<std::uint8_t> readBuf;
};

} // namespace authenticache::net

#endif // AUTH_NET_EPOLL_TRANSPORT_HPP
