/**
 * @file
 * The socket authentication workload (auth_socket).
 *
 * The real server runs behind an EpollTransport pumped by the main
 * thread with a util::ThreadPool of width 3 (two workers plus the
 * pump thread). One load-generator thread drives honest devices over
 * TCP, waiting on all its sockets at once with epoll. Each auth is a
 * full round trip: AuthRequest -> ChallengeMsg -> ResponseMsg ->
 * AuthDecision, timed from queuing the AuthRequest (written in the
 * same loop iteration) to reading the AuthDecision.
 *
 * The workload has two parts, each on servers of its own: the socket
 * part (a large fleet, durability off) gives the end-to-end metrics;
 * the durable part (a smaller fleet, shipped durability) gives the
 * durability, journal and storage layers' figures (see README.md).
 *
 * In each part, two phases share one server. The light phase keeps
 * two auths outstanding and measures service time; the loaded phase
 * holds a fixed window well below the admission budget and measures
 * capacity. In the light phase the pump and the generator poll
 * without sleeping: waking an idle core costs a hypervisor wake-up
 * whose latency on a shared host swings by an order of magnitude, and
 * that is not the server's service time. Both run a fixed number of
 * auths, so the state a durable run leaves (snapshot size, rotations)
 * is a function of the seed and the run length only, never of speed.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <variant>

#include "common.hpp"
#include "net/epoll_transport.hpp"
#include "net/wire.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "server/storage.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace net = ac::net;
namespace protocol = ac::protocol;
namespace server = ac::server;

/** Sizes of one auth run. */
struct AuthPlan
{
    std::size_t devices = 0;
    /** Repetitions, each on a fresh server (and durable directory);
     *  the part's figures are medians over them. */
    std::size_t reps = 1;
    /** Set-ups per repetition; setup_s is the median over all. */
    int setupReps = 7;
    std::size_t lightAuths = 0;
    std::size_t loadedAuths = 0;
    std::size_t lightWindow = 2;
    /**
     * Well under the 4096 admission budget, and enough to keep the
     * pump busy so the phase measures capacity rather than wake-up
     * latency. With two appends per auth and a rotation every 4096
     * appends, a rotation stalls a bit over window / 2048 of the
     * loaded auths, and more on a slow host. The durable part uses 720,
     * so that share (about 38% over four rotations) is at least three
     * times the 10% cut of the loaded p90: the p90 and p99 sit inside
     * the stalls rather than on their edge. A wider window would push
     * the share toward the median's 50% cut.
     */
    std::size_t loadedWindow = 512;
    /** At most kPerConnectionCap outstanding per connection. */
    std::size_t connections = 4;
    /** Rotations each durable repetition must perform (0 when not
     *  durable). */
    std::uint64_t expectedRotations = 0;
};

/** Journal events per auth: PairsRetired on the request, AuthOutcome
 *  on the response (counter checkpoints are off by default). */
constexpr std::uint64_t kAppendsPerAuth = 2;

/**
 * The transport's per-connection request queue: the default (64) with
 * headroom for the loaded window over four connections. Every other
 * transport setting is the shipped default.
 */
constexpr std::size_t kPerConnectionQueue = 256;

/** Auths in flight per connection: three quarters of the queue, so
 *  reads never pause for backpressure. */
constexpr std::size_t kPerConnectionCap = kPerConnectionQueue * 3 / 4;

/** Slices per phase for the run-level medians (blockPercentile). */
constexpr std::size_t kBlocks = 10;

/** A reply that takes this long fails the run. */
constexpr std::int64_t kReplyTimeoutNs = 10'000'000'000;

/** Replay sample caps (trace runs). */
constexpr std::size_t kReplayFrames = 20000;
constexpr std::size_t kReplayRecords = 4000;

AuthPlan
planFor(bool durable, unsigned seconds)
{
    AuthPlan p;
    if (!durable) {
        // 100k devices: the fleet's records, caches and consumed-pair
        // sets are far past the last-level cache. The light phase
        // carries the end-to-end figures, so it gets most of the run's
        // time; the loaded phase only needs a capacity reading and ten
        // samples beyond its p99.
        p.devices = 100000;
        p.lightAuths = 2000 * std::size_t(seconds);
        p.loadedAuths = 1500 * std::size_t(seconds);
        return p;
    }
    // Every auth retires its pairs, so a durable snapshot grows with
    // history and each rotation costs more than the last. The durable
    // part is therefore a series of identical short repetitions, each
    // from a fresh enrollment in a fresh directory, and its figures
    // are medians over them: a burst of host noise spoils one
    // repetition, not the part.
    p.devices = 10000;
    p.reps = std::max<std::size_t>(3, seconds / 6);
    p.setupReps = 3;
    p.loadedWindow = 720;
    // The light phase waits on two journal fsyncs per auth: the
    // service time of a durable server. Each repetition's light phase
    // is one slice of the part's medians.
    p.lightAuths = 500;
    // Trim the total so its appends land half a rotation past a
    // rotation boundary. Rotation runs at batch boundaries once the
    // append budget is spent, so each one overshoots by part of a
    // batch; the half-rotation margin absorbs that and keeps the
    // rotation count exact for every seed. Four rotations, all in the
    // loaded phase, keep its stalled share over a third.
    const std::uint64_t every = server::DurabilityConfig{}.rotateEveryAppends;
    const std::uint64_t rotations = 4;
    const std::uint64_t appends = rotations * every + every / 2;
    p.loadedAuths = appends / kAppendsPerAuth - p.lightAuths;
    p.expectedRotations = rotations;
    return p;
}

server::ServerConfig
serverConfig()
{
    // Shipped defaults, as the CLI and heartbeat_fleet run them:
    // 128-bit challenges, so each auth retires 128 pairs and a
    // durable snapshot grows by about 1 KB per auth.
    return server::ServerConfig{};
}

/** One in-flight auth on the generator side. */
struct InFlight
{
    std::int64_t start = 0;
    std::int64_t span = -1;
    std::size_t conn = 0;
    bool loaded = false;
};

/** What the load generator saw. */
struct LoadGenResult
{
    std::vector<double> lightMs;
    std::vector<double> loadedMs;
    /** [start, end] of every auth, per phase (stall attribution). */
    std::vector<std::pair<std::int64_t, std::int64_t>> lightSpans;
    std::vector<std::pair<std::int64_t, std::int64_t>> loadedSpans;
    std::int64_t loadedStart = 0;
    std::int64_t loadedEnd = 0;
    std::int64_t loadedCpuNs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::string fatal;
    /** Trace runs: client->server payloads, and devices in the order
     *  they first authenticated. */
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint64_t> devices;
};

/** Phase flag the generator publishes to the pump thread. */
enum Phase : int
{
    kLight = 0,
    kLoaded = 1,
    kDone = 2
};

class LoadGen
{
  public:
    LoadGen(const AuthPlan &plan_, const Fleet &fleet_,
            std::uint64_t seed, std::uint16_t port_,
            std::atomic<int> &phase_, Tracer &tracer_)
        : plan(plan_), fleet(fleet_), port(port_), phase(phase_),
          tracer(tracer_)
    {
        order.resize(fleet.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<std::uint32_t>(i);
        ac::util::Rng rng(seed ^ 0x0A17'10ADull);
        rng.shuffle(order);
    }

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    ~LoadGen()
    {
        for (auto &c : conns)
            if (c.fd >= 0)
                ::close(c.fd);
        if (ep >= 0)
            ::close(ep);
    }

    void
    run()
    {
        try {
            connectAll();
            runPhase(plan.lightAuths, plan.lightWindow, false);
            phase.store(kLoaded, std::memory_order_release);
            const std::int64_t cpu0 = threadCpuNs();
            out.loadedStart = nowNs();
            runPhase(plan.loadedAuths, plan.loadedWindow, true);
            out.loadedEnd = nowNs();
            out.loadedCpuNs = threadCpuNs() - cpu0;
        } catch (const std::exception &e) {
            out.fatal = e.what();
        }
        phase.store(kDone, std::memory_order_release);
    }

    LoadGenResult out;

  private:
    struct Conn
    {
        int fd = -1;
        net::WireDecoder decoder;
        std::vector<std::uint8_t> pending; ///< Frames not yet written.
    };

    void
    connectAll()
    {
        ep = ::epoll_create1(EPOLL_CLOEXEC);
        if (ep < 0)
            throw std::runtime_error("epoll_create1 failed");
        conns.resize(plan.connections);
        perConn.assign(plan.connections, 0);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if (fd < 0)
                throw std::runtime_error("socket failed");
            conns[i].fd = fd;
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(port);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr)) < 0)
                throw std::runtime_error("connect failed");
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = i;
            if (::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev) < 0)
                throw std::runtime_error("epoll_ctl failed");
        }
    }

    /**
     * The connection with the fewest auths in flight, if it has room.
     * A per-connection cap under the server's per-connection queue
     * keeps reads from pausing even when one connection's replies lag
     * and its share of the window piles up.
     */
    std::optional<std::size_t>
    pickConnection() const
    {
        const std::size_t cap = kPerConnectionCap;
        const auto it = std::min_element(perConn.begin(), perConn.end());
        if (*it >= cap)
            return std::nullopt;
        return static_cast<std::size_t>(it - perConn.begin());
    }

    /** Queue a frame on @p conn; flush() writes it. */
    void
    send(std::size_t conn, std::uint64_t stream,
         const protocol::Message &m)
    {
        if (tracer.enabled() && out.payloads.size() < kReplayFrames)
            out.payloads.push_back(protocol::encodeMessage(m));
        const std::vector<std::uint8_t> bytes =
            net::encodeWireMessage(stream, m);
        std::vector<std::uint8_t> &buf = conns[conn].pending;
        buf.insert(buf.end(), bytes.begin(), bytes.end());
    }

    /**
     * Write every queued frame, one send per connection. Writing per
     * frame would cost the generator a syscall per frame and hand the
     * server a trickle of one-frame batches.
     */
    void
    flush()
    {
        for (Conn &c : conns) {
            std::size_t off = 0;
            while (off < c.pending.size()) {
                ssize_t n = ::send(c.fd, c.pending.data() + off,
                                   c.pending.size() - off, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    throw std::runtime_error("send failed");
                }
                off += static_cast<std::size_t>(n);
            }
            c.pending.clear();
        }
    }

    void
    runPhase(std::size_t count, std::size_t window, bool loaded)
    {
        std::size_t issued = 0;
        done = 0;
        while (done < count) {
            while (issued < count && inflight.size() < window) {
                const std::uint64_t id =
                    Fleet::idOf(order[next % order.size()]);
                if (inflight.count(id) != 0)
                    break; // One auth per device at a time.
                const std::optional<std::size_t> conn = pickConnection();
                if (!conn)
                    break;
                ++next;
                ++issued;
                ++out.attempted;
                ++perConn[*conn];
                InFlight f;
                f.loaded = loaded;
                f.conn = *conn;
                f.span = tracer.open(SpanName::Auth, -1, next);
                if (tracer.enabled() &&
                    out.devices.size() < kReplayRecords &&
                    next <= fleet.size())
                    out.devices.push_back(id);
                f.start = nowNs();
                send(f.conn, id,
                     protocol::Message{protocol::AuthRequest{id}});
                inflight.emplace(id, f);
            }
            flush();
            waitAndRead(!loaded);
        }
    }

    /** Wait for replies; @p spin polls instead of sleeping. */
    void
    waitAndRead(bool spin)
    {
        epoll_event evs[16];
        int n = 0;
        if (spin) {
            const std::int64_t t0 = nowNs();
            while ((n = ::epoll_wait(ep, evs, 16, 0)) == 0 &&
                   nowNs() - t0 < kReplyTimeoutNs) {
            }
        } else {
            n = ::epoll_wait(ep, evs, 16,
                             static_cast<int>(kReplyTimeoutNs / 1000000));
        }
        if (n == 0)
            throw std::runtime_error("no reply for 10 s");
        if (n < 0) {
            if (errno == EINTR)
                return;
            throw std::runtime_error("epoll_wait failed");
        }
        for (int i = 0; i < n; ++i) {
            Conn &c = conns[evs[i].data.u64];
            std::uint8_t buf[16384];
            for (;;) {
                ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
                if (r > 0) {
                    c.decoder.feed(std::span<const std::uint8_t>(
                        buf, static_cast<std::size_t>(r)));
                    continue;
                }
                if (r == 0)
                    throw std::runtime_error("server closed connection");
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                throw std::runtime_error("recv failed");
            }
            while (auto frame = c.decoder.next())
                handle(frame->stream,
                       protocol::decodeMessage(frame->payload));
            if (c.decoder.failed())
                throw std::runtime_error("reply stream corrupt");
        }
    }

    void
    handle(std::uint64_t stream, const protocol::Message &m)
    {
        auto it = inflight.find(stream);
        if (it == inflight.end()) {
            ++out.errors; // A reply nobody is waiting for.
            return;
        }
        if (const auto *ch = std::get_if<protocol::ChallengeMsg>(&m)) {
            const std::int64_t ev =
                tracer.open(SpanName::DeviceEval, it->second.span,
                            stream);
            ac::util::BitVec resp = ac::core::evaluate(
                fleet.deviceMaps[Fleet::indexOf(stream)], ch->challenge);
            send(it->second.conn, stream,
                 protocol::Message{
                     protocol::ResponseMsg{ch->nonce, std::move(resp)}});
            tracer.close(ev);
            return;
        }
        const InFlight f = it->second;
        inflight.erase(it);
        --perConn[f.conn];
        ++done;
        if (const auto *d = std::get_if<protocol::AuthDecision>(&m)) {
            const std::int64_t end = nowNs();
            tracer.close(f.span);
            if (!d->accepted) {
                ++out.rejected;
                return;
            }
            ++out.accepted;
            const double ms = static_cast<double>(end - f.start) / 1e6;
            (f.loaded ? out.loadedMs : out.lightMs).push_back(ms);
            (f.loaded ? out.loadedSpans : out.lightSpans)
                .emplace_back(f.start, end);
            return;
        }
        ++out.errors; // ErrorMsg (shed or protocol reject) or stray.
    }

    const AuthPlan &plan;
    const Fleet &fleet;
    std::uint16_t port;
    std::atomic<int> &phase;
    Tracer &tracer;
    std::vector<std::uint32_t> order;
    std::vector<Conn> conns;
    std::vector<std::size_t> perConn; ///< Auths in flight per connection.
    int ep = -1;
    std::unordered_map<std::uint64_t, InFlight> inflight;
    std::size_t next = 0;
    std::size_t done = 0;
};

/** Pump-thread observations. */
struct PumpResult
{
    std::int64_t loadedCpuNs = 0;
    /** Every thread's CPU over the loaded phase, generator included. */
    std::int64_t loadedProcessCpuNs = 0;
    net::TransportCounters loadedStart;
    net::TransportCounters loadedEnd;
    /** [start, end] of pump calls across which generation advanced. */
    std::vector<std::pair<std::int64_t, std::int64_t>> rotations;
    /**
     * Journal appends and bytes over pump calls that did not rotate.
     * DurabilityStats::appendedBytes counts the open generation's
     * journal only, so bytes per append is taken where it is whole.
     */
    std::uint64_t plainAppends = 0;
    std::uint64_t plainBytes = 0;
};

/** Share of @p auths whose interval overlaps any rotation. */
double
stalledFraction(
    const std::vector<std::pair<std::int64_t, std::int64_t>> &auths,
    const std::vector<std::pair<std::int64_t, std::int64_t>> &rot)
{
    if (auths.empty())
        return 0.0;
    std::size_t stalled = 0;
    for (const auto &[s, e] : auths) {
        // Rotations are disjoint and in time order: the first one
        // ending at or after s is the only candidate.
        auto it = std::lower_bound(
            rot.begin(), rot.end(), s,
            [](const auto &r, std::int64_t t) { return r.second < t; });
        if (it != rot.end() && it->first <= e)
            ++stalled;
    }
    return static_cast<double>(stalled) /
           static_cast<double>(auths.size());
}

std::string
filesystemName(const std::string &path)
{
    struct statfs sf{};
    if (::statfs(path.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53:
        return "ext2/3/4";
    case 0x01021994:
        return "tmpfs";
    default: {
        std::ostringstream os;
        os << "statfs type 0x" << std::hex << sf.f_type;
        return os.str();
    }
    }
}

/** Everything one auth run measured. */
struct AuthOutcome
{
    LoadGenResult gen;
    PumpResult pump;
    net::TransportCounters counters;
    std::vector<double> setupS;
    double loadedWallS = 0.0;
    double measuredS = 0.0; ///< Both phases, first request to last reply.
    std::uint64_t evicted = 0;
    std::uint64_t expired = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reports = 0;
    std::uint64_t reportsRejected = 0;
    server::DurabilityStats dur;
    std::uint64_t rotations = 0; ///< generation() advance in the run.
    // Durable end state.
    double snapshotMb = 0.0;
    std::vector<double> encodeMs;
    std::vector<double> decodeMs;
    std::vector<double> recoverS;
    std::uint64_t replayed = 0;
    bool recoveredIdentical = false;
    std::string filesystem;
    // Trace replays.
    double decodeUs = 0.0;
    double generateUs = 0.0;
    double verifyUs = 0.0;
    std::size_t replayPairs = 0;
    std::uint64_t replayRejected = 0;
    std::size_t spans = 0;
    std::uint64_t evalCount = 0;
    double evalNs = 0.0;
};

/**
 * One repetition on a fresh server. With @p inspectEnd, a durable
 * repetition also times encoding, decoding and recovery of the state
 * it leaves, and checks the recovered database.
 */
AuthOutcome
runAuthOnce(const RunOptions &opt, bool durable, const AuthPlan &plan,
            const Fleet &fleet, bool traced, bool inspectEnd)
{
    AuthOutcome o;
    const server::ServerConfig cfg = serverConfig();
    const std::string dir =
        opt.stateDir + "/durable-" + std::to_string(::getpid());

    std::unique_ptr<server::AuthenticationServer> srv;
    std::unique_ptr<server::DurabilityManager> dur;
    server::DurabilityConfig dcfg;
    dcfg.dir = dir;
    for (int rep = 0; rep < plan.setupReps; ++rep) {
        dur.reset();
        srv.reset();
        fs::remove_all(dir);
        fs::create_directories(dir);
        std::vector<server::DeviceRecord> records = fleet.records;
        const std::int64_t t0 = nowNs();
        srv = std::make_unique<server::AuthenticationServer>(cfg,
                                                             opt.seed);
        for (auto &r : records)
            srv->enrollRecord(std::move(r));
        if (durable) {
            dur = std::make_unique<server::DurabilityManager>(
                dcfg, srv->database());
            srv->attachDurability(dur.get());
        }
        o.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    o.filesystem = filesystemName(dir);
    const std::uint64_t gen0 = dur ? dur->generation() : 0;
    const server::DurabilityStats dur0 =
        dur ? dur->stats() : server::DurabilityStats{};

    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = kPerConnectionQueue;
    net::EpollTransport transport(srv->frontEnd(), tcfg);
    ac::util::ThreadPool pool(3);
    Tracer genTracer(traced, 1);
    Tracer pumpTracer(traced, 0);
    std::atomic<int> phase{kLight};
    LoadGen gen(plan, fleet, opt.seed, transport.port(), phase,
                genTracer);
    std::thread loadgen([&gen] { gen.run(); });

    // The pump loop: the calling thread owns the transport. If it
    // throws, the generator times out waiting for replies and ends,
    // so it can be joined before the error propagates.
    int seen = kLight;
    std::int64_t cpuStart = 0;
    std::int64_t processCpuStart = 0;
    std::exception_ptr pumpError;
    try {
        for (;;) {
            const int now = phase.load(std::memory_order_acquire);
            if (now != seen) {
                if (now >= kLoaded && seen == kLight) {
                    cpuStart = threadCpuNs();
                    processCpuStart = processCpuNs();
                    o.pump.loadedStart = transport.counters();
                }
                if (now == kDone) {
                    o.pump.loadedCpuNs = threadCpuNs() - cpuStart;
                    o.pump.loadedProcessCpuNs =
                        processCpuNs() - processCpuStart;
                    o.pump.loadedEnd = transport.counters();
                    break;
                }
                seen = now;
            }
            const std::uint64_t g = dur ? dur->generation() : 0;
            const server::DurabilityStats before =
                dur ? dur->stats() : server::DurabilityStats{};
            const std::int64_t t0 = nowNs();
            const std::size_t serviced =
                transport.pump(pool, seen == kLight ? 0 : 1);
            const std::int64_t t1 = nowNs();
            if (dur && dur->generation() != g) {
                o.pump.rotations.emplace_back(t0, t1);
                pumpTracer.record(SpanName::Rotation, t0, t1);
            } else if (serviced > 0) {
                pumpTracer.record(SpanName::Pump, t0, t1);
                // appendedBytes is refreshed on append only, so the first
                // append after a rotation drops it to the new journal's
                // size; such a call is skipped too.
                const server::DurabilityStats after =
                    dur ? dur->stats() : server::DurabilityStats{};
                if (dur && after.appendedBytes >= before.appendedBytes) {
                    o.pump.plainAppends += after.appends - before.appends;
                    o.pump.plainBytes +=
                        after.appendedBytes - before.appendedBytes;
                }
            }
        }
    } catch (...) {
        pumpError = std::current_exception();
    }
    loadgen.join();
    if (pumpError)
        std::rethrow_exception(pumpError);
    transport.drain(pool);
    o.gen = std::move(gen.out);
    o.counters = transport.counters();
    o.loadedWallS =
        static_cast<double>(o.gen.loadedEnd - o.gen.loadedStart) / 1e9;
    if (!o.gen.lightSpans.empty())
        o.measuredS = static_cast<double>(o.gen.loadedEnd -
                                          o.gen.lightSpans.front().first) /
                      1e9;
    o.evicted = srv->sessionsEvicted();
    o.expired = srv->sessionsExpired();
    o.duplicates = srv->duplicateRequests();
    o.reports = srv->frontEnd().reports().size();
    for (const auto &r : srv->frontEnd().reports())
        o.reportsRejected += r.accepted ? 0 : 1;

    if (dur) {
        o.rotations = dur->generation() - gen0;
        o.dur = dur->stats();
        o.dur.appends -= dur0.appends;
        o.dur.fsyncs -= dur0.fsyncs;
    }
    if (dur && inspectEnd) {
        std::vector<std::uint8_t> live;
        for (int rep = 0; rep < 3; ++rep) {
            const std::int64_t t0 = nowNs();
            live = server::saveDatabase(srv->database());
            o.encodeMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
        o.snapshotMb = static_cast<double>(live.size()) / 1e6;
        for (int rep = 0; rep < 3; ++rep) {
            const std::int64_t t0 = nowNs();
            server::EnrollmentDatabase db = server::loadDatabase(live);
            o.decodeMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
        srv->attachDurability(nullptr);
        dur.reset();
        // Recovery on the directory the run left, as a restarted
        // server would find it.
        for (int rep = 0; rep < 3; ++rep) {
            const std::int64_t t0 = nowNs();
            server::RecoveryResult rec =
                server::DurabilityManager::recover(dcfg);
            o.recoverS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            o.replayed = rec.replayedRecords;
            o.recoveredIdentical = server::saveDatabase(rec.db) == live;
        }
    }

    if (traced) {
        Tracer &t = genTracer;
        o.evalCount = t.count(SpanName::DeviceEval);
        o.evalNs = t.totalNs(SpanName::DeviceEval);
        // Replay the run's own inputs through single layers.
        const auto &frames = o.gen.payloads;
        o.decodeUs = usPerItem(t, SpanName::ReplayDecode, frames.size(),
                               [&](std::size_t i) {
                                   auto m = protocol::decodeMessage(
                                       frames[i]);
                                   (void)m;
                               });
        // End-state copies of the records of the devices the run
        // authenticated, in the order it first reached them.
        const auto &ids = o.gen.devices;
        std::vector<server::DeviceRecord> copies;
        for (std::uint64_t id : ids)
            copies.push_back(srv->database().at(id));
        server::ChallengeGenerator generator(ac::util::Rng(opt.seed));
        ac::util::Rng rng(opt.seed + 1);
        ac::core::EvalScratch scratch;
        std::vector<server::GeneratedChallenge> generated(copies.size());
        o.generateUs = usPerItem(
            t, SpanName::ReplayGenerate, copies.size(),
            [&](std::size_t i) {
                generated[i] = generator.generate(
                    copies[i], kLevel, cfg.challengeBits, rng, scratch);
            });
        // Each device answers its replayed challenge (untimed); the
        // verifier then scores the server's expected response against
        // the device's.
        std::vector<ac::core::Response> responses;
        for (std::size_t i = 0; i < generated.size(); ++i)
            responses.push_back(ac::core::evaluate(
                fleet.deviceMaps[Fleet::indexOf(ids[i])],
                generated[i].challenge));
        std::uint64_t rejected = 0;
        o.verifyUs = usPerItem(
            t, SpanName::ReplayVerify, responses.size(),
            [&](std::size_t i) {
                rejected += srv->verifier()
                                .verify(generated[i].expected,
                                        responses[i])
                                .accepted
                                ? 0
                                : 1;
            });
        o.replayRejected = rejected;
        o.replayPairs = responses.size();
        o.spans = writeSpans(opt, {&pumpTracer, &genTracer});
    }
    if (dur) {
        srv->attachDurability(nullptr);
        dur.reset();
    }
    fs::remove_all(dir);
    return o;
}

/** One repetition's phase figures. */
struct RepFigures
{
    double lightRate = 0.0;
    double loadedRate = 0.0;
    double loaded50 = 0.0;
    double loaded90 = 0.0;
    /** Server CPU (pump and pool threads) per loaded auth, in us. */
    double loadedCpuUs = 0.0;
    double lightStall = 0.0;
    double loadedStall = 0.0;
};

/** Every repetition of one server configuration, with its figures. */
struct AuthSet
{
    AuthPlan plan;
    bool durable = false;
    std::vector<AuthOutcome> reps; ///< Untraced; every timing.
    std::optional<AuthOutcome> traced;
    std::vector<RepFigures> figs;  ///< One per untraced repetition.
    std::vector<double> lightMs;   ///< Pooled over the repetitions.
    std::vector<double> loadedMs;
    std::vector<double> setupS;
    /** Peak resident set once the fleet was built, in MB. */
    double rssBase = 0.0;

    double
    medianOf(double RepFigures::*field) const
    {
        std::vector<double> v;
        for (const RepFigures &f : figs)
            v.push_back(f.*field);
        return median(v);
    }
};

/** Apply every output check to one repetition. */
void
checkOutcome(const AuthOutcome &o, const AuthSet &set, const RepFigures &f,
             const std::string &tag, Report &report)
{
    const AuthPlan &plan = set.plan;
    const std::uint64_t total = plan.lightAuths + plan.loadedAuths;
    const LoadGenResult &g = o.gen;
    if (!g.fatal.empty())
        report.check(false, tag + "load generator: " + g.fatal);
    report.check(g.attempted == total, tag + "every planned auth attempted");
    report.check(g.accepted == total, tag + "every honest auth accepted");
    report.check(o.reports == total && o.reportsRejected == 0,
                 tag + "server reports one accepted decision per auth");
    report.check(o.counters.framesIn == 2 * total,
                 tag + "server decoded exactly two frames per auth");
    report.check(o.counters.shed == 0, tag + "no frame shed");
    report.check(o.counters.backpressureStalls == 0,
                 tag + "no backpressure stall");
    report.check(o.evicted == 0 && o.expired == 0 && o.duplicates == 0,
                 tag + "no session evicted, expired or duplicated");
    bool ok = false;
    percentile(g.loadedMs, 0.90, ok);
    report.check(ok, tag + "at least ten samples beyond the loaded p90");
    if (!set.durable)
        return;
    report.check(o.dur.appends == kAppendsPerAuth * total,
                 tag + "journal appends: exactly two per auth");
    report.check(o.rotations == plan.expectedRotations,
                 tag + "rotation count matches the plan (" +
                     std::to_string(plan.expectedRotations) + ")");
    // A tail percentile is read only where the stalled share sits at
    // least 3x away from its cut, so the tail is either clear of the
    // stalls or squarely inside them -- never on the cliff.
    auto clear = [](double v, double cut) {
        return v <= cut / 3 || v >= 3 * cut;
    };
    report.check(clear(f.lightStall, 0.10) && clear(f.lightStall, 0.01),
                 tag + "light-phase stalled share clear of the p90 and "
                       "p99 cuts");
    report.check(clear(f.loadedStall, 0.10) && clear(f.loadedStall, 0.01),
                 tag + "loaded-phase stalled share clear of the p90 and "
                       "p99 cuts");
}

RepFigures
figuresOf(const AuthOutcome &o)
{
    const LoadGenResult &g = o.gen;
    RepFigures f;
    if (!g.lightSpans.empty()) {
        std::int64_t end = 0;
        for (const auto &span : g.lightSpans)
            end = std::max(end, span.second);
        f.lightRate = static_cast<double>(g.lightSpans.size()) /
                      (static_cast<double>(end - g.lightSpans.front().first) /
                       1e9);
    }
    f.loadedRate = o.loadedWallS > 0
                       ? static_cast<double>(g.loadedMs.size()) /
                             o.loadedWallS
                       : 0.0;
    bool ok = false;
    f.loaded50 = percentile(g.loadedMs, 0.50, ok);
    f.loaded90 = percentile(g.loadedMs, 0.90, ok);
    // Every thread but the load generator's serves the server.
    f.loadedCpuUs =
        g.loadedMs.empty()
            ? 0.0
            : static_cast<double>(o.pump.loadedProcessCpuNs -
                                  g.loadedCpuNs) /
                  1e3 / static_cast<double>(g.loadedMs.size());
    f.lightStall = stalledFraction(g.lightSpans, o.pump.rotations);
    f.loadedStall = stalledFraction(g.loadedSpans, o.pump.rotations);
    return f;
}

/**
 * Run every repetition of @p durable's plan (plus one traced
 * repetition when @p traced), check each, and count its auths into
 * the report's attempted and failed totals.
 */
AuthSet
runAuthSet(const RunOptions &opt, bool durable, bool traced,
           Report &report)
{
    AuthSet set;
    set.plan = planFor(durable, opt.seconds);
    set.durable = durable;
    const AuthPlan &plan = set.plan;
    const Fleet fleet = makeFleet(plan.devices, opt.seed);
    set.rssBase = peakRssMb();
    {
        std::ostringstream os;
        os << (durable ? "durable part" : "socket part") << ": devices "
           << plan.devices << ", " << plan.reps
           << " repetition(s) of: light " << plan.lightAuths
           << " auths at window " << plan.lightWindow << ", loaded "
           << plan.loadedAuths << " auths at window " << plan.loadedWindow
           << "; " << plan.connections << " connections, durability "
           << (durable ? "on (shipped defaults)" : "off");
        report.note(os.str());
    }
    for (std::size_t r = 0; r < plan.reps; ++r)
        set.reps.push_back(runAuthOnce(opt, durable, plan, fleet, false,
                                       r + 1 == plan.reps));
    if (traced)
        set.traced = runAuthOnce(opt, durable, plan, fleet, true, false);

    const std::string part = durable ? "durable " : "";
    for (std::size_t r = 0; r < set.reps.size(); ++r) {
        const AuthOutcome &o = set.reps[r];
        set.figs.push_back(figuresOf(o));
        checkOutcome(o, set, set.figs.back(),
                     part + "repetition " + std::to_string(r + 1) + ": ",
                     report);
        set.lightMs.insert(set.lightMs.end(), o.gen.lightMs.begin(),
                           o.gen.lightMs.end());
        set.loadedMs.insert(set.loadedMs.end(), o.gen.loadedMs.begin(),
                            o.gen.loadedMs.end());
        set.setupS.insert(set.setupS.end(), o.setupS.begin(),
                          o.setupS.end());
    }
    if (set.traced)
        checkOutcome(*set.traced, set, figuresOf(*set.traced),
                     part + "traced repetition: ", report);

    std::vector<const AuthOutcome *> all;
    for (const AuthOutcome &o : set.reps)
        all.push_back(&o);
    if (set.traced)
        all.push_back(&*set.traced);
    for (const AuthOutcome *o : all) {
        const LoadGenResult &g = o->gen;
        const std::uint64_t answered = g.accepted + g.rejected + g.errors;
        report.attempted += g.attempted;
        report.failed += g.rejected + g.errors +
                         (g.attempted > answered ? g.attempted - answered
                                                 : 0);
    }
    return set;
}

/** Light-phase percentile, median over slices (or repetitions). */
double
lightPercentile(const AuthSet &set, double q, bool &supported)
{
    return blockPercentile(set.lightMs,
                           set.plan.reps == 1 ? kBlocks : set.plan.reps, q,
                           supported);
}

/** The socket part: end-to-end figures and the transport layers. */
void
reportSocket(const AuthSet &set, Report &report)
{
    const AuthOutcome &o = set.reps.front();
    const LoadGenResult &g = o.gen;
    const std::uint64_t total = set.plan.lightAuths + set.plan.loadedAuths;

    bool ok[4] = {};
    const double light50 = lightPercentile(set, 0.50, ok[0]);
    const double light90 = lightPercentile(set, 0.90, ok[1]);
    const double light99 = percentile(set.lightMs, 0.99, ok[2]);
    const double loaded99 = percentile(set.loadedMs, 0.99, ok[3]);
    report.check(ok[1] && ok[2] && ok[3],
                 "at least ten samples beyond every tail percentile");
    const double lightRate = set.medianOf(&RepFigures::lightRate);
    const double loadedRate = set.medianOf(&RepFigures::loadedRate);

    // End to end: the light phase's latency, and the server's CPU per
    // auth under load. Rates are per-layer: a rate is a mean, and on a
    // shared host preemption stalls drag a mean much further than a
    // median (see README.md).
    report.add("p50_ms", light50, "ms", g.lightMs.size());
    report.add("server_cpu_us_per_op",
               set.medianOf(&RepFigures::loadedCpuUs), "us",
               g.loadedMs.size());
    report.add("setup_s", median(set.setupS), "s", set.setupS.size());
    // The fleet is the load generator's; the memory figure is what the
    // process grows by past it.
    report.add("server_peak_rss_mb", peakRssMb() - set.rssBase, "MB", 1);
    report.note("peak resident set " + std::to_string(peakRssMb()) +
                " MB, of which " + std::to_string(set.rssBase) +
                " MB before the first server");
    report.add("auth.light_per_s", lightRate, "1/s", g.lightMs.size());
    report.add("auth.loaded_per_s", loadedRate, "1/s", g.loadedMs.size());
    report.add("auth.light_p50_ms", light50, "ms", g.lightMs.size());
    report.add("auth.light_p90_ms", light90, "ms", g.lightMs.size());
    report.add("auth.light_p99_ms", light99, "ms", g.lightMs.size());
    report.add("auth.loaded_p50_ms", set.medianOf(&RepFigures::loaded50),
               "ms", g.loadedMs.size());
    report.add("auth.loaded_p90_ms", set.medianOf(&RepFigures::loaded90),
               "ms", g.loadedMs.size());
    report.add("auth.loaded_p99_ms", loaded99, "ms", g.loadedMs.size());

    // Transport and session layers.
    const net::TransportCounters &c = o.counters;
    const auto &a = o.pump.loadedStart;
    const auto &b = o.pump.loadedEnd;
    const double loadedFrames = static_cast<double>(b.framesIn - a.framesIn);
    const double wallNs = o.loadedWallS * 1e9;
    report.add("net.frames_in", static_cast<double>(c.framesIn), "count",
               1);
    report.add("net.pump_busy_frac",
               wallNs > 0 ? static_cast<double>(o.pump.loadedCpuNs) / wallNs
                          : 0.0,
               "1", 1);
    report.add("net.pump_us_per_frame",
               loadedFrames > 0 ? static_cast<double>(o.pump.loadedCpuNs) /
                                      1e3 / loadedFrames
                                : 0.0,
               "us", b.framesIn - a.framesIn);
    report.add("net.frames_per_batch",
               b.batches > a.batches
                   ? loadedFrames / static_cast<double>(b.batches - a.batches)
                   : 0.0,
               "count", b.batches - a.batches);
    report.add("net.bytes_per_auth",
               static_cast<double>(c.bytesIn + c.bytesOut) /
                   static_cast<double>(total),
               "B", total);
    report.add("net.shed", static_cast<double>(c.shed), "count", 1);
    report.add("net.backpressure_stalls",
               static_cast<double>(c.backpressureStalls), "count", 1);
    report.add("server.sessions_evicted", static_cast<double>(o.evicted),
               "count", 1);
    report.add("server.sessions_expired", static_cast<double>(o.expired),
               "count", 1);
    report.add("server.duplicate_requests",
               static_cast<double>(o.duplicates), "count", 1);
    report.add("loadgen.busy_frac",
               wallNs > 0 ? static_cast<double>(g.loadedCpuNs) / wallNs
                          : 0.0,
               "1", 1);

    if (!set.traced)
        return;
    const AuthOutcome &t = *set.traced;
    report.add("loadgen.eval_us_per_response",
               t.evalCount
                   ? t.evalNs / 1e3 / static_cast<double>(t.evalCount)
                   : 0.0,
               "us", t.evalCount);
    report.add("protocol.decode_us_per_frame", t.decodeUs, "us",
               t.gen.payloads.size());
    report.check(t.replayPairs > 0 && t.replayRejected == 0,
                 "replayed honest responses all verify");
    report.add("challenge_gen.us_per_challenge", t.generateUs, "us",
               t.replayPairs);
    report.add("verifier.us_per_verify", t.verifyUs, "us", t.replayPairs);
    const double base = o.measuredS;
    report.add("trace.overhead_frac",
               base > 0 ? t.measuredS / base - 1.0 : 0.0, "1", 1);
    report.add("trace.spans", static_cast<double>(t.spans), "count", 1);
}

/** The durable part: the durability, journal and storage layers. */
void
reportDurable(const AuthSet &set, Report &report)
{
    const AuthOutcome &last = set.reps.back();
    report.check(last.recoveredIdentical,
                 "recovered database re-encodes byte-identical");
    bool ok[3] = {};
    const double light50 = lightPercentile(set, 0.50, ok[0]);
    const double light99 = percentile(set.lightMs, 0.99, ok[1]);
    const double loaded99 = percentile(set.loadedMs, 0.99, ok[2]);
    report.check(ok[1] && ok[2],
                 "durable part: at least ten samples beyond every tail "
                 "percentile");

    std::uint64_t appends = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t plainAppends = 0;
    std::uint64_t plainBytes = 0;
    std::uint64_t rotations = 0;
    std::vector<double> rotMs;
    double loadedRotNs = 0.0;
    double wallNs = 0.0;
    for (const AuthOutcome &o : set.reps) {
        appends += o.dur.appends;
        fsyncs += o.dur.fsyncs;
        plainAppends += o.pump.plainAppends;
        plainBytes += o.pump.plainBytes;
        rotations += o.rotations;
        wallNs += o.loadedWallS * 1e9;
        for (const auto &[s, e] : o.pump.rotations) {
            rotMs.push_back(static_cast<double>(e - s) / 1e6);
            if (s >= o.gen.loadedStart && e <= o.gen.loadedEnd)
                loadedRotNs += static_cast<double>(e - s);
        }
    }
    const std::uint64_t auths =
        (set.plan.lightAuths + set.plan.loadedAuths) * set.plan.reps;
    const double n = static_cast<double>(auths);
    const std::size_t lightN = set.lightMs.size();
    const std::size_t loadedN = set.loadedMs.size();
    report.add("durability.setup_s", median(set.setupS), "s",
               set.setupS.size());
    report.add("durability.loaded_per_s",
               set.medianOf(&RepFigures::loadedRate), "1/s", loadedN);
    report.add("durability.cpu_us_per_auth",
               set.medianOf(&RepFigures::loadedCpuUs), "us", loadedN);
    report.add("durability.light_p50_ms", light50, "ms", lightN);
    report.add("durability.light_p99_ms", light99, "ms", lightN);
    report.add("durability.loaded_p50_ms",
               set.medianOf(&RepFigures::loaded50), "ms", loadedN);
    report.add("durability.loaded_p90_ms",
               set.medianOf(&RepFigures::loaded90), "ms", loadedN);
    report.add("durability.loaded_p99_ms", loaded99, "ms", loadedN);
    report.add("durability.appends", static_cast<double>(appends), "count",
               1);
    report.add("durability.appends_per_auth",
               static_cast<double>(appends) / n, "count", auths);
    report.add("durability.bytes_per_auth",
               plainAppends ? static_cast<double>(plainBytes) /
                                  static_cast<double>(plainAppends) *
                                  kAppendsPerAuth
                            : 0.0,
               "B", plainAppends / kAppendsPerAuth);
    report.add("durability.fsyncs_per_auth", static_cast<double>(fsyncs) / n,
               "count", auths);
    report.add("durability.rotations", static_cast<double>(rotations),
               "count", 1);
    report.add("durability.rotate_ms_p50", median(rotMs), "ms",
               rotMs.size());
    report.add("durability.rotate_busy_frac",
               wallNs > 0 ? loadedRotNs / wallNs : 0.0, "1", 1);
    report.add("durability.stalled_auth_frac",
               set.medianOf(&RepFigures::loadedStall), "1", loadedN);
    report.add("durability.stalled_light_frac",
               set.medianOf(&RepFigures::lightStall), "1", lightN);
    report.add("durability.recover_s", median(last.recoverS), "s",
               last.recoverS.size());
    report.add("durability.replayed_records",
               static_cast<double>(last.replayed), "count", 1);
    report.add("storage.snapshot_mb", last.snapshotMb, "MB", 1);
    report.add("storage.encode_ms", median(last.encodeMs), "ms",
               last.encodeMs.size());
    report.add("storage.decode_ms", median(last.decodeMs), "ms",
               last.decodeMs.size());
    report.note("durable directory filesystem: " + last.filesystem +
                "; journal fsync before every batch's replies; rotation "
                "every " +
                std::to_string(server::DurabilityConfig{}.rotateEveryAppends) +
                " appends");
}

} // namespace

void
runAuthWorkload(const RunOptions &opt, Report &report)
{
    // The socket part carries the end-to-end figures.
    reportSocket(runAuthSet(opt, false, opt.trace, report), report);
    // The durable part: fresh servers on a smaller fleet with the
    // shipped durability, the last one's directory recovered at the
    // end. Its figures are per-layer only (see README.md).
    reportDurable(runAuthSet(opt, true, false, report), report);
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, report.attempted)),
               "1", report.attempted);
}

} // namespace perfbench
