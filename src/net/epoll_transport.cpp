#include "net/epoll_transport.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace authenticache::net {

namespace {

[[noreturn]] void
throwErrno(const char *what)
{
    throw std::system_error(errno, std::generic_category(), what);
}

/** fd -> Conn backlink stored in epoll_event.data.ptr. */
struct ConnTag
{
    TransportCore::Conn *conn;
};

} // namespace

EpollTransport::EpollTransport(server::ServerFrontEnd &front,
                               const TransportConfig &config,
                               std::uint16_t port)
    : core(front, config), readBuf(config.readChunkBytes)
{
    listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                     SOCK_CLOEXEC,
                        0);
    if (listenFd < 0)
        throwErrno("socket");
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        ::close(listenFd);
        throwErrno("bind");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0) {
        ::close(listenFd);
        throwErrno("getsockname");
    }
    boundPort = ntohs(addr.sin_port);
    if (::listen(listenFd, SOMAXCONN) < 0) {
        ::close(listenFd);
        throwErrno("listen");
    }

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0) {
        ::close(listenFd);
        throwErrno("epoll_create1");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr; // nullptr tags the listener.
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev) < 0) {
        ::close(epollFd);
        ::close(listenFd);
        throwErrno("epoll_ctl(listen)");
    }
}

EpollTransport::~EpollTransport()
{
    for (auto &[id, conn] : core.connections())
        if (conn->fd >= 0)
            ::close(conn->fd);
    if (listenFd >= 0)
        ::close(listenFd);
    if (epollFd >= 0)
        ::close(epollFd);
}

void
EpollTransport::acceptPending()
{
    for (;;) {
        int fd = ::accept4(listenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == ECONNABORTED)
                return;
            return; // EMFILE etc.: drop the wave, keep serving.
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        TransportCore::Conn &conn = core.open(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = &conn;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) < 0) {
            core.close(conn);
            ::close(fd);
            conn.fd = -1;
            continue;
        }
        interest[fd] = EPOLLIN;
    }
}

void
EpollTransport::readReady(TransportCore::Conn &conn)
{
    while (core.wantsRead(conn)) {
        ssize_t n = ::read(conn.fd, readBuf.data(), readBuf.size());
        if (n > 0) {
            core.ingest(conn, std::span<const std::uint8_t>(
                                  readBuf.data(),
                                  static_cast<std::size_t>(n)));
            continue;
        }
        if (n == 0) { // EOF
            teardown(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        teardown(conn); // ECONNRESET and friends.
        return;
    }
    // Queue full with the socket still readable: pause EPOLLIN and
    // let TCP carry the backpressure to the peer. (The stall itself
    // was counted by ingest when the queue filled.)
    if (!conn.closed && !conn.readPaused) {
        conn.readPaused = true;
        updateInterest(conn);
    }
}

void
EpollTransport::flushWrites(TransportCore::Conn &conn)
{
    while (conn.pendingOut() > 0) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.outHead,
                           conn.pendingOut(), MSG_NOSIGNAL);
        if (n > 0) {
            conn.outHead += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        teardown(conn); // EPIPE/ECONNRESET: peer is gone.
        return;
    }
    if (conn.pendingOut() == 0) {
        conn.out.clear();
        conn.outHead = 0;
    }
}

void
EpollTransport::updateInterest(TransportCore::Conn &conn)
{
    if (conn.fd < 0 || conn.closed)
        return;
    std::uint32_t want = 0;
    if (!conn.readPaused)
        want |= EPOLLIN;
    if (conn.pendingOut() > 0)
        want |= EPOLLOUT;
    auto it = interest.find(conn.fd);
    if (it == interest.end() || it->second == want)
        return;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = &conn;
    if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        it->second = want;
}

void
EpollTransport::teardown(TransportCore::Conn &conn)
{
    if (conn.fd >= 0) {
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, conn.fd, nullptr);
        interest.erase(conn.fd);
        ::close(conn.fd);
        conn.fd = -1;
    }
    core.close(conn);
}

void
EpollTransport::reapClosed()
{
    for (auto &[id, conn] : core.connections())
        if (conn->closed && conn->fd >= 0) {
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
            interest.erase(conn->fd);
            ::close(conn->fd);
            conn->fd = -1;
        }
    core.reap();
}

std::size_t
EpollTransport::pump(util::ThreadPool &pool, int timeoutMs)
{
    epoll_event events[64];
    int n = ::epoll_wait(epollFd, events, 64, timeoutMs);
    for (int i = 0; i < n; ++i) {
        if (events[i].data.ptr == nullptr) {
            if (accepting)
                acceptPending();
            continue;
        }
        auto &conn = *static_cast<TransportCore::Conn *>(
            events[i].data.ptr);
        if (conn.closed)
            continue;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
            teardown(conn);
            continue;
        }
        if (events[i].events & EPOLLIN)
            readReady(conn);
        if (conn.closed)
            continue;
        if (events[i].events & EPOLLOUT)
            flushWrites(conn);
    }

    const std::size_t serviced = core.runBatch(pool);

    // Post-batch: flush fresh replies, resume paused readers whose
    // queues drained, and sync epoll interest with reality.
    for (auto &[id, conn] : core.connections()) {
        if (conn->closed)
            continue;
        if (conn->pendingOut() > 0)
            flushWrites(*conn);
        if (conn->closed)
            continue;
        if (conn->readPaused && core.wantsRead(*conn))
            conn->readPaused = false;
        updateInterest(*conn);
    }
    reapClosed();
    return serviced;
}

void
EpollTransport::drain(util::ThreadPool &pool)
{
    accepting = false;
    // Service admitted work and flush replies until quiescent. Each
    // cycle blocks briefly so peers get a chance to absorb replies;
    // a bounded cycle count keeps a wedged peer from hanging
    // shutdown (its connection is then torn down with the rest).
    std::size_t idleCycles = 0;
    std::size_t totalCycles = 0;
    while (idleCycles < 3 && totalCycles < 10000) {
        const std::size_t serviced = pump(pool, 1);
        ++totalCycles;
        if (serviced == 0 && idle())
            ++idleCycles;
        else
            idleCycles = 0;
    }
    for (auto &[id, conn] : core.connections())
        if (!conn->closed)
            teardown(*conn);
    reapClosed();
}

bool
EpollTransport::idle() const
{
    if (!core.idle())
        return false;
    for (const auto &[id, conn] : core.connections())
        if (!conn->closed && conn->pendingOut() > 0)
            return false;
    return true;
}

} // namespace authenticache::net
