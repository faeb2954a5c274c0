/**
 * @file
 * Socket-transport load bench: drives a fleet of simulated devices
 * (100k in full mode) through complete authentication round trips
 * over real TCP sockets against a live EpollTransport, sweeping the
 * offered in-flight load from well under the admission budget to 4x
 * over it.
 *
 * Emits BENCH_transport.json -- the degradation curve the regression
 * gate enforces (tools/bench_compare.py, EXPERIMENTS.md "Transport
 * degradation curve"). The gated properties are JSON bools under
 * "gates", so the gate is hardware-independent:
 *
 *  - transport_lowload_accept   -- >= 95% of attempts accepted when
 *                                  offered load is B/4.
 *  - transport_shed_monotone    -- shed fraction never *decreases* as
 *                                  offered load grows (0.02 epsilon).
 *  - transport_goodput_retention-- goodput at 4x overload holds at
 *                                  least half of goodput at the
 *                                  budget point (shed, don't
 *                                  collapse).
 *  - transport_p99_bounded      -- accepted-auth p99 latency at 4x
 *                                  overload stays within 500x of the
 *                                  low-load p99 (bounded queues keep
 *                                  latency bounded).
 *
 * Topology: the main thread owns the transport pump (single-threaded
 * pump contract); T client threads each multiplex their share of the
 * device fleet as wire streams over C/T sockets, holding a fixed
 * per-thread in-flight window. Every attempt is a full round trip:
 * AuthRequest -> ChallengeMsg -> honest ResponseMsg (computed from
 * the enrolled map) -> AuthDecision, or an explicit Overloaded
 * reject when admission control sheds the frame.
 *
 * Flags: --out-dir <dir>, --smoke (or AUTHENTICACHE_QUICK=1).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/remap.hpp"
#include "mc/mapgen.hpp"
#include "net/epoll_transport.hpp"
#include "net/socket_client.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

using namespace authenticache;

namespace {

using authbench::Clock;
using authbench::Json;
using authbench::nsSince;
using authbench::percentile;

// ---------------------------------------------------------------
// Load generator.
// ---------------------------------------------------------------

constexpr std::uint64_t kServerSeed = 0x70AD;
constexpr std::uint64_t kFirstId = 1001;
constexpr core::VddMv kLevel = 700.0;

struct LoadParams
{
    std::size_t devices;
    std::size_t conns;
    std::size_t threads;
    std::size_t budget;       ///< TransportConfig::globalInFlight.
    std::size_t perConnQueue; ///< TransportConfig::perConnectionQueue.
};

LoadParams
loadParams(bool quick)
{
    if (quick)
        return {2000, 8, 2, 256, 64};
    return {100000, 16, 4, 2048, 256};
}

/** Per-worker tallies, merged after join. */
struct WorkerStats
{
    std::vector<double> latenciesNs; ///< Accepted auths only.
    std::uint64_t attempts = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t failures = 0;
};

/**
 * Drive @p devices through full auth round trips over @p nConns
 * sockets, keeping up to @p window attempts in flight. Reads only
 * enrollment-time record state (mapKey, physicalMap) from the shared
 * database -- the bench never remaps, so those fields are immutable
 * while the server runs.
 */
void
runClients(std::uint16_t port,
           const server::AuthenticationServer &server,
           std::span<const std::uint64_t> devices, std::size_t nConns,
           std::size_t window, std::size_t passes, WorkerStats &out)
{
    const std::size_t total = devices.size() * passes;
    std::vector<net::SocketClient> conns(nConns);
    for (auto &c : conns)
        if (!c.connectTo(port)) {
            out.failures += total;
            return;
        }

    // device id (== stream id) -> round-trip start time.
    std::unordered_map<std::uint64_t, Clock::time_point> inflight;
    std::size_t next = 0;

    auto handle = [&](net::SocketClient &c, std::uint64_t stream,
                      const protocol::Message &m) {
        auto it = inflight.find(stream);
        if (it == inflight.end())
            return; // Stale duplicate from a previous sweep.
        if (const auto *ch =
                std::get_if<protocol::ChallengeMsg>(&m)) {
            const auto &rec = server.database().at(stream);
            core::LogicalRemap remap(rec.mapKey(),
                                     rec.physicalMap().geometry());
            auto resp = core::evaluate(
                remap.mapErrorMap(rec.physicalMap()), ch->challenge);
            if (!c.sendMessage(stream,
                               protocol::Message{protocol::ResponseMsg{
                                   ch->nonce, resp}})) {
                ++out.failures;
                inflight.erase(it);
            }
            return;
        }
        if (const auto *d =
                std::get_if<protocol::AuthDecision>(&m)) {
            if (d->accepted) {
                ++out.accepted;
                out.latenciesNs.push_back(nsSince(it->second));
            } else {
                ++out.failures;
            }
            inflight.erase(it);
            return;
        }
        // ErrorMsg: admission-control shed or a genuine failure
        // (e.g. a session evicted under the pending cap).
        if (net::isOverloadedReject(m))
            ++out.shed;
        else
            ++out.failures;
        inflight.erase(it);
    };

    while (next < total || !inflight.empty()) {
        // Top up the in-flight window. Passes > 1 cycle the device
        // fleet to sustain load; a device still in flight from the
        // previous pass blocks the top-up until it completes (one
        // attempt per device at a time).
        while (next < total && inflight.size() < window) {
            const std::uint64_t id = devices[next % devices.size()];
            if (inflight.count(id) != 0)
                break;
            net::SocketClient &c = conns[next % nConns];
            ++next;
            ++out.attempts;
            if (c.eof() || c.failed() ||
                !c.sendMessage(id, protocol::Message{
                                       protocol::AuthRequest{id}})) {
                ++out.failures;
                continue;
            }
            inflight.emplace(id, Clock::now());
        }

        // Drain every reply that is already decodable or readable.
        bool got = false;
        for (auto &c : conns)
            while (auto m = c.readMessage(0)) {
                got = true;
                handle(c, m->first, m->second);
            }
        if (got || inflight.empty())
            continue;

        // Nothing ready: block briefly on one live socket. The next
        // lap re-drains all of them at zero timeout.
        bool alive = false;
        for (auto &c : conns) {
            if (c.eof() || c.failed())
                continue;
            alive = true;
            if (auto m = c.readMessage(1))
                handle(c, m->first, m->second);
            break;
        }
        if (!alive) {
            // Every connection died; abandon what's left.
            out.failures += inflight.size();
            out.failures += total - next;
            inflight.clear();
            next = total;
        }
    }
}

// ---------------------------------------------------------------
// Sweeps.
// ---------------------------------------------------------------

struct SweepOutcome
{
    std::size_t window = 0;
    double wallS = 0.0;
    WorkerStats merged;
    net::TransportCounters counters;
    double p50Ns = 0.0;
    double p99Ns = 0.0;

    double
    goodputPerS() const
    {
        return wallS > 0.0
                   ? static_cast<double>(merged.accepted) / wallS
                   : 0.0;
    }
    double
    shedFrac() const
    {
        return merged.attempts > 0
                   ? static_cast<double>(merged.shed) /
                         static_cast<double>(merged.attempts)
                   : 0.0;
    }
    double
    acceptFrac() const
    {
        return merged.attempts > 0
                   ? static_cast<double>(merged.accepted) /
                         static_cast<double>(merged.attempts)
                   : 0.0;
    }
};

SweepOutcome
runSweep(server::AuthenticationServer &server,
         const std::vector<std::uint64_t> &devices,
         const LoadParams &p, std::size_t window, std::size_t passes)
{
    net::TransportConfig tcfg;
    tcfg.perConnectionQueue = p.perConnQueue;
    tcfg.globalInFlight = p.budget;
    // Continuation-aware shedding: under overload, shed new
    // AuthRequests first and keep admitting the responses to
    // challenges already issued -- without this, half the server's
    // overload capacity goes into challenges whose responses are then
    // shed, and goodput collapses instead of plateauing.
    tcfg.continuationReserve = p.budget / 4;
    net::EpollTransport transport(server.frontEnd(), tcfg);
    util::ThreadPool pool;

    std::vector<WorkerStats> stats(p.threads);
    std::atomic<std::size_t> running{p.threads};
    const std::size_t connsPer =
        std::max<std::size_t>(1, p.conns / p.threads);
    const std::size_t windowPer =
        std::max<std::size_t>(1, window / p.threads);
    const std::size_t perThread =
        (devices.size() + p.threads - 1) / p.threads;

    authbench::WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(p.threads);
    for (std::size_t t = 0; t < p.threads; ++t) {
        const std::size_t lo = std::min(t * perThread,
                                        devices.size());
        const std::size_t hi = std::min(lo + perThread,
                                        devices.size());
        workers.emplace_back([&, t, lo, hi] {
            runClients(transport.port(), server,
                       std::span<const std::uint64_t>(
                           devices.data() + lo, hi - lo),
                       connsPer, windowPer, passes, stats[t]);
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    while (running.load(std::memory_order_acquire) > 0)
        transport.pump(pool, 1);
    for (auto &w : workers)
        w.join();
    const double wall = timer.seconds();
    transport.drain(pool);

    SweepOutcome out;
    out.window = window;
    out.wallS = wall;
    for (auto &s : stats) {
        out.merged.attempts += s.attempts;
        out.merged.accepted += s.accepted;
        out.merged.shed += s.shed;
        out.merged.failures += s.failures;
        out.merged.latenciesNs.insert(out.merged.latenciesNs.end(),
                                      s.latenciesNs.begin(),
                                      s.latenciesNs.end());
    }
    out.counters = transport.counters();
    out.p50Ns = percentile(out.merged.latenciesNs, 0.50);
    out.p99Ns = percentile(out.merged.latenciesNs, 0.99);
    return out;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

/** Window labels, in sweep order: fractions of the budget B. */
const std::string kWindowLabels[4] = {"w0.25x", "w1x", "w2x", "w4x"};

void
writeTransport(const std::string &path, const LoadParams &p,
               const std::vector<SweepOutcome> &sweeps,
               const authbench::Gates &gates, bool quick)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    authbench::writeHeader(j, "authenticache-bench-transport-v2", quick);
    j.openObject("load");
    j.field("devices", std::uint64_t(p.devices));
    j.field("connections", std::uint64_t(p.conns));
    j.field("client_threads", std::uint64_t(p.threads));
    j.field("global_in_flight", std::uint64_t(p.budget));
    j.field("per_connection_queue", std::uint64_t(p.perConnQueue));
    j.closeObject();
    j.openArray("benchmarks");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepOutcome &s = sweeps[i];
        authbench::writeSeries(
            j, {"transport_auth_e2e", kWindowLabels[i], s.goodputPerS(),
                s.p50Ns, s.p99Ns, s.merged.accepted});
    }
    j.closeArray();
    j.openArray("load_curve");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepOutcome &s = sweeps[i];
        j.openObject();
        j.field("window_label", kWindowLabels[i]);
        j.field("window", std::uint64_t(s.window));
        j.field("attempts", s.merged.attempts);
        j.field("accepted", s.merged.accepted);
        j.field("shed", s.merged.shed);
        j.field("failures", s.merged.failures);
        j.field("accept_frac", s.acceptFrac());
        j.field("shed_frac", s.shedFrac());
        j.field("goodput_per_s", s.goodputPerS());
        j.field("p50_ns", s.p50Ns);
        j.field("p99_ns", s.p99Ns);
        j.field("wall_s", s.wallS);
        j.field("srv_accepted", s.counters.accepted);
        j.field("srv_shed", s.counters.shed);
        j.field("srv_backpressure_stalls",
                s.counters.backpressureStalls);
        j.field("srv_batches", s.counters.batches);
        j.field("srv_frames_in", s.counters.framesIn);
        j.field("srv_frames_out", s.counters.framesOut);
        j.closeObject();
    }
    j.closeArray();
    authbench::writeGates(j, gates);
    j.close();
}

authbench::Gates
deriveGates(const std::vector<SweepOutcome> &sweeps)
{
    const bool lowload = sweeps[0].acceptFrac() >= 0.95;
    bool monotone = true;
    for (std::size_t i = 1; i < sweeps.size(); ++i)
        if (sweeps[i].shedFrac() + 0.02 < sweeps[i - 1].shedFrac())
            monotone = false;
    const bool retention =
        sweeps[3].goodputPerS() >= 0.5 * sweeps[1].goodputPerS();
    const bool p99Bounded =
        sweeps[0].p99Ns <= 0.0 ||
        sweeps[3].p99Ns <= 500.0 * sweeps[0].p99Ns;

    return {
        {"transport_lowload_accept", lowload},
        {"transport_shed_monotone", monotone},
        {"transport_goodput_retention", retention},
        {"transport_p99_bounded", p99Bounded},
    };
}

server::ServerConfig
serverConfig(bool quick)
{
    server::ServerConfig cfg;
    cfg.challengeBits = 32;
    cfg.remapSecretBits = 8;
    cfg.fuzzyRepetition = 5;
    cfg.verifier.pIntra = 0.08;
    cfg.sessionShards = 4;
    // Pending sessions linger when a ResponseMsg is shed (the next
    // sweep's duplicate request resumes them); keep the cap far above
    // the largest window so cap eviction never distorts the curve.
    cfg.maxPendingSessions = quick ? 8192 : 65536;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out-dir") && i + 1 < argc)
            out_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else {
            std::cerr << "usage: bench_transport_load "
                         "[--out-dir D] [--smoke]\n";
            return 2;
        }
    }
    if (authbench::quickMode())
        smoke = true;

    authbench::banner(
        "Socket-transport load sweep (BENCH_transport.json)",
        "degradation curve under overload; see EXPERIMENTS.md "
        "'Transport degradation curve'");

    const LoadParams p = loadParams(smoke);
    server::AuthenticationServer server(serverConfig(smoke),
                                        kServerSeed);
    const core::CacheGeometry geom(64 * 1024);
    std::vector<std::uint64_t> devices;
    devices.reserve(p.devices);
    {
        authbench::WallTimer t;
        for (std::size_t i = 0; i < p.devices; ++i) {
            const std::uint64_t id = kFirstId + i;
            util::Rng mr = util::Rng::forStream(0xD1CE, id);
            server.database().enroll(server::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, 40, mr),
                {kLevel}, {}));
            devices.push_back(id);
        }
        std::cout << "enrolled " << p.devices << " devices ("
                  << t.seconds() << " s)\n";
    }

    // Offered in-flight load as a fraction of the admission budget
    // B: under (B/4), at (B), and over (2B, 4B). Ascending order, so
    // the low-load gate runs before overload leaves any residue.
    const std::size_t windows[4] = {p.budget / 4, p.budget,
                                    2 * p.budget, 4 * p.budget};
    // Sustain each sweep well past its transient: enough attempts
    // that the largest window turns over many times, cycling the
    // device fleet when it is smaller than that.
    const std::size_t passes = std::max<std::size_t>(
        1, (12 * windows[3] + p.devices - 1) / p.devices);
    std::vector<SweepOutcome> sweeps;
    sweeps.reserve(4);
    for (std::size_t i = 0; i < 4; ++i) {
        authbench::WallTimer t;
        sweeps.push_back(
            runSweep(server, devices, p, windows[i], passes));
        const SweepOutcome &s = sweeps.back();
        std::cout << kWindowLabels[i] << " (window "
                  << windows[i] << "): " << s.merged.accepted
                  << " accepted, " << s.merged.shed << " shed, "
                  << s.merged.failures << " failed in "
                  << t.seconds() << " s ("
                  << s.goodputPerS() << " auth/s, p99 "
                  << s.p99Ns / 1e6 << " ms)\n";
    }

    const auto gates = deriveGates(sweeps);
    const std::string path = out_dir + "/BENCH_transport.json";
    writeTransport(path, p, sweeps, gates, smoke);
    std::cout << "wrote " << path << "\n";
    if (!authbench::reportGates(gates)) {
        std::cerr << "FAIL: degradation-curve gate violated\n";
        return 1;
    }
    return 0;
}
