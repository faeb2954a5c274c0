/**
 * @file
 * Continuous-authentication heartbeat drift sweep: a fleet of genuine
 * devices rides a transient environmental excursion (temperature +
 * aging + measurement noise ramped by sim::DriftSchedule) while the
 * server runs heartbeat sessions with the trust-decay ladder, and the
 * same fleet replays the excursion against a no-trust-ledger baseline
 * (fixed-width periodic authentication with a consecutive-failure
 * lockout) at an equal challenge-bit budget.
 *
 * Emits BENCH_heartbeat.json -- gated by tools/bench_compare.py (see
 * EXPERIMENTS.md "Heartbeat drift sweep"). Gates are JSON bools under
 * "gates", so they are hardware-independent:
 *
 *  - heartbeat_determinism -- the sweep's per-device wire transcripts
 *    and trust trajectories are byte-identical across a rerun, across
 *    device-level driver thread counts, and across server batch-pool
 *    widths.
 *  - heartbeat_policy_gate -- the trust-decay policy's service-denial
 *    rate AND lockout rate are strictly lower than the fixed-policy
 *    baseline's at equal challenge budget: step-up rounds, trust
 *    buffering, and proactive remaps ride out an excursion that
 *    permanently locks out the fixed policy. Denial is symmetric:
 *    failed rounds plus every scheduled round a locked-out (or
 *    ladder-expelled) device never got to run, over the same
 *    steps/period denominator in both arms -- so an arm cannot
 *    improve its rate by locking out early and not attempting.
 *
 * Substrate selection honors AUTHENTICACHE_PLATFORM (sram_vmin
 * default, dram_mra in the second CI leg), like the test suites.
 *
 * Flags: --out-dir <dir>, --smoke (or AUTHENTICACHE_QUICK=1).
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/drift.hpp"
#include "substrate/config.hpp"
#include "substrate/drift_injector.hpp"
#include "substrate/registry.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace fw = authenticache::firmware;
namespace net = authenticache::net;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace srv = authenticache::server;
namespace sub = authenticache::substrate;
namespace util = authenticache::util;

namespace {

constexpr std::uint64_t kFirstId = 501;
constexpr std::uint64_t kDieSeed = 0x9DE0;
constexpr std::uint64_t kServerSeed = 0x48EA;
constexpr std::uint64_t kDriftSeed = 0xD21F7;

struct SweepParams
{
    std::size_t devices;
    std::size_t steps;
    sim::DriftScheduleConfig drift;
};

SweepParams
sweepParams(bool quick)
{
    SweepParams p;
    p.devices = quick ? 3 : 6;
    p.steps = quick ? 120 : 200;
    // A transient excursion: ramp up, hold at peak, ramp back to
    // nominal, sized so the run observes the full shape. Severity is
    // tuned to the gap the policy gate demonstrates: strong enough
    // that fixed 64-bit rounds fail consecutively at peak, mild
    // enough that 128-bit step-up rounds still clear the threshold.
    p.drift.rampSteps = quick ? 24 : 40;
    p.drift.holdSteps = quick ? 16 : 24;
    p.drift.returnToNominal = true;
    p.drift.phaseJitterSteps = 8;
    p.drift.peakTemperatureDeltaC = 14.0;
    p.drift.peakAgingYears = 1.0;
    p.drift.peakSigmaMv = 1.8;
    return p;
}

std::string
platformName()
{
    const char *env = std::getenv("AUTHENTICACHE_PLATFORM");
    return (env != nullptr && *env != '\0') ? env : "sram_vmin";
}

std::unique_ptr<sub::FingerprintSubstrate>
makeChip(std::size_t idx)
{
    sub::PlatformConfig pc;
    pc.substrate = platformName();
    pc.cacheBytes = 256 * 1024;
    return sub::makeSubstrate(pc, kDieSeed + idx);
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (auto b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

/** Server->client challenge bits in a transcript (the CRP budget). */
std::uint64_t
issuedChallengeBits(const proto::Transcript &tap)
{
    std::uint64_t bits = 0;
    for (const auto &entry : tap.entries()) {
        if (entry.direction != proto::Direction::ServerToClient)
            continue;
        auto msg = proto::decodeMessage(entry.frame);
        if (const auto *hb = std::get_if<proto::Heartbeat>(&msg))
            bits += hb->challenge.size();
        else if (const auto *ch = std::get_if<proto::ChallengeMsg>(&msg))
            bits += ch->challenge.size();
        else if (const auto *rr = std::get_if<proto::RemapRequest>(&msg))
            bits += rr->challenge.size();
    }
    return bits;
}

/** One device's run under the heartbeat (trust-ledger) policy. */
struct HeartbeatOutcome
{
    std::string transcript; ///< Every frame, both directions, hex.
    std::vector<std::uint32_t> trust;
    std::uint64_t rounds = 0;
    std::uint64_t failed = 0;
    std::uint64_t marginal = 0;
    std::uint64_t remaps = 0;
    std::uint64_t challengeBits = 0;
    bool lockedOut = false; ///< Revoked, re-enroll, or locked.
};

HeartbeatOutcome
runHeartbeatDevice(std::size_t idx, unsigned pool_width,
                   const SweepParams &p)
{
    const std::uint64_t id = kFirstId + idx;
    auto chip = makeChip(idx);
    fw::SimulatedMachine machine{4};
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);
    client.boot();

    srv::ServerConfig cfg;
    cfg.challengeBits = 128;
    cfg.verifier.pIntra = 0.08;
    srv::AuthenticationServer server(cfg, kServerSeed);
    auto levels = srv::defaultChallengeLevels(client, 2);
    auto reserved = srv::defaultReservedLevel(client);
    server.enroll(id, client, levels, {reserved});

    util::SimClock clock;
    server.bindClock(&clock);
    util::ThreadPool pool(pool_width);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    proto::Transcript tap;
    transport.attachTranscript(&tap);
    auto *link = transport.connect();
    net::DeviceAgent agent(id, client, *link);
    agent.bindClock(&clock);
    sim::DriftSchedule schedule(kDriftSeed, id, p.drift);
    sub::DriftInjector drift(*chip, schedule);

    // Every frame the agent queued is serviced in one batch, so the
    // batch pipeline (and its any-pool-width determinism contract) is
    // on the gated path.
    auto pumpBoth = [&] {
        bool progress = true;
        while (progress) {
            progress = transport.pump(pool) > 0;
            while (agent.pumpOnce())
                progress = true;
        }
    };

    server.startHeartbeat(id, link->sink(id));
    HeartbeatOutcome out;
    for (std::size_t s = 0; s < p.steps; ++s) {
        pumpBoth();
        clock.advance(1);
        drift.apply(clock.now());
        server.tickHeartbeats(link->sink(id));
        server.tick();
        agent.tick();
        out.trust.push_back(server.database().at(id).trustScore());
    }
    pumpBoth();

    for (const auto &entry : tap.entries())
        out.transcript += hex(entry.frame) + "\n";
    const auto totals = server.sessions().totals();
    out.failed = totals.heartbeatsFailed;
    out.marginal = totals.heartbeatsMarginal;
    out.rounds = totals.heartbeatsClean + out.marginal + out.failed;
    out.remaps = totals.proactiveRemaps;
    out.challengeBits = issuedChallengeBits(tap);
    const auto &record = server.database().at(id);
    out.lockedOut = record.revoked() || record.reenrollRequired() ||
                    record.locked();
    return out;
}

/**
 * Run the whole fleet, device-parallel on @p driver_threads, with
 * each device's server batches dispatched on a @p pool_width pool.
 * Devices are independent streams, so the result must not depend on
 * either knob -- that is exactly what the determinism gate checks.
 */
std::vector<HeartbeatOutcome>
runHeartbeatSweep(const SweepParams &p, unsigned driver_threads,
                  unsigned pool_width)
{
    std::vector<HeartbeatOutcome> out(p.devices);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < driver_threads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < p.devices; i += driver_threads)
                out[i] = runHeartbeatDevice(i, pool_width, p);
        });
    }
    for (auto &w : workers)
        w.join();
    return out;
}

bool
sweepsEqual(const std::vector<HeartbeatOutcome> &a,
            const std::vector<HeartbeatOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].transcript != b[i].transcript ||
            a[i].trust != b[i].trust)
            return false;
    }
    return true;
}

/** One device's run under the fixed-width lockout baseline. */
struct FixedOutcome
{
    std::uint64_t attempts = 0;
    std::uint64_t rejects = 0;
    std::uint64_t challengeBits = 0;
    bool locked = false;
};

/**
 * The no-trust-ledger control arm: the same die, the same drift
 * excursion, but plain periodic authentication at the heartbeat's
 * nominal width and no step-up or remap. The control policy locks a
 * device after three consecutive failed rounds, where "failed" is
 * either a rejected response or no response at all (a drift-stressed
 * client that cannot pass its self-test goes silent) -- the same
 * missed-round accounting the heartbeat ledger applies. Challenge
 * issue stops once the arm has spent the bit budget the heartbeat
 * arm used for this die, so both policies burn the same CRP budget.
 */
FixedOutcome
runFixedDevice(std::size_t idx, const SweepParams &p,
               std::uint64_t bit_budget)
{
    const std::uint64_t id = kFirstId + idx;
    auto chip = makeChip(idx);
    fw::SimulatedMachine machine{4};
    fw::ClientConfig ccfg;
    ccfg.selfTestAttempts = 8;
    fw::AuthenticacheClient client(*chip, machine, ccfg);
    client.boot();

    srv::ServerConfig cfg;
    cfg.challengeBits = 64; // The heartbeat arm's nominal width.
    cfg.verifier.pIntra = 0.08;
    cfg.lockoutThreshold = 3;
    srv::AuthenticationServer server(cfg, kServerSeed);
    auto levels = srv::defaultChallengeLevels(client, 2);
    auto reserved = srv::defaultReservedLevel(client);
    server.enroll(id, client, levels, {reserved});

    util::SimClock clock;
    server.bindClock(&clock);
    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    proto::Transcript tap;
    transport.attachTranscript(&tap);
    net::DeviceAgent agent(id, client, *transport.connect());
    agent.bindClock(&clock);
    sim::DriftSchedule schedule(kDriftSeed, id, p.drift);
    sub::DriftInjector drift(*chip, schedule);

    const std::uint64_t period = cfg.trust.periodSteps;
    FixedOutcome out;
    std::uint64_t consecutive = 0;
    for (std::size_t s = 0; s < p.steps; ++s) {
        if (s % period == 0 && !out.locked &&
            issuedChallengeBits(tap) < bit_budget) {
            agent.requestAuthentication();
            net::runExchange(transport, agent, pool);
            ++out.attempts;
            const auto &decision = agent.lastDecision();
            if (!decision || !decision->accepted) {
                ++out.rejects;
                ++consecutive;
            } else {
                consecutive = 0;
            }
            out.locked = server.database().at(id).locked() ||
                         consecutive >= cfg.lockoutThreshold;
        }
        clock.advance(1);
        drift.apply(clock.now());
        server.tick();
        agent.tick();
    }
    out.challengeBits = issuedChallengeBits(tap);
    return out;
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
            std::cerr << "usage: bench_heartbeat_drift "
                         "[--out-dir D] [--smoke]\n";
            return 2;
        }
    }
    if (authbench::quickMode())
        smoke = true;

    authbench::banner(
        "Heartbeat drift sweep (BENCH_heartbeat.json)",
        "continuous-authentication trust decay under environmental "
        "drift; see EXPERIMENTS.md 'Heartbeat drift sweep'");
    const SweepParams p = sweepParams(smoke);
    std::cout << "substrate: " << platformName() << ", " << p.devices
              << " devices, " << p.steps << " steps\n\n";

    // --- Determinism: rerun, driver threads, batch-pool width. ---
    authbench::WallTimer t_det;
    auto base = runHeartbeatSweep(p, 1, 1);
    const double base_s = t_det.seconds();
    auto rerun = runHeartbeatSweep(p, 1, 1);
    auto threaded = runHeartbeatSweep(p, smoke ? 2 : 4, 1);
    auto pooled = runHeartbeatSweep(p, 1, 4);
    const bool deterministic = sweepsEqual(base, rerun) &&
                               sweepsEqual(base, threaded) &&
                               sweepsEqual(base, pooled);
    std::cout << "determinism: rerun/threads/pool "
              << (deterministic ? "byte-identical" : "DIVERGED")
              << " (" << t_det.seconds() << " s for 4 sweeps)\n";

    // --- Policy comparison at equal challenge budget. ---
    authbench::WallTimer t_fixed;
    std::uint64_t hb_rounds = 0, hb_failed = 0, hb_marginal = 0;
    std::uint64_t hb_bits = 0, hb_remaps = 0, hb_locked = 0;
    for (const auto &o : base) {
        hb_rounds += o.rounds;
        hb_failed += o.failed;
        hb_marginal += o.marginal;
        hb_bits += o.challengeBits;
        hb_remaps += o.remaps;
        hb_locked += o.lockedOut ? 1 : 0;
    }
    std::vector<FixedOutcome> fixed;
    fixed.reserve(p.devices);
    std::uint64_t fx_attempts = 0, fx_rejects = 0, fx_bits = 0;
    std::uint64_t fx_locked = 0;
    for (std::size_t i = 0; i < p.devices; ++i) {
        fixed.push_back(runFixedDevice(i, p, base[i].challengeBits));
        fx_attempts += fixed.back().attempts;
        fx_rejects += fixed.back().rejects;
        fx_bits += fixed.back().challengeBits;
        fx_locked += fixed.back().locked ? 1 : 0;
    }
    const double fixed_s = t_fixed.seconds();

    // Service-denial rate over the scheduled-round grid: both arms
    // owe steps/period rounds per device; a failed round is denied,
    // and so is every scheduled round that never ran because the
    // device was locked out, expelled from the ladder, or out of
    // budget. Same denominator both sides -- no survivorship bias.
    const std::uint64_t period = srv::ServerConfig{}.trust.periodSteps;
    const std::uint64_t scheduled =
        p.devices * (p.steps / period);
    const std::uint64_t hb_denied =
        hb_failed + (scheduled > hb_rounds ? scheduled - hb_rounds
                                           : 0);
    const std::uint64_t fx_denied =
        fx_rejects + (scheduled > fx_attempts
                          ? scheduled - fx_attempts
                          : 0);
    const double frr_trust = double(hb_denied) / double(scheduled);
    const double frr_fixed = double(fx_denied) / double(scheduled);
    const double lock_trust = double(hb_locked) / double(p.devices);
    const double lock_fixed = double(fx_locked) / double(p.devices);
    const bool policy_wins =
        frr_trust < frr_fixed && lock_trust < lock_fixed;

    util::Table perdev({"device", "trust_failed/rounds",
                        "trust_out", "fixed_rejects/attempts",
                        "fixed_locked"});
    for (std::size_t i = 0; i < p.devices; ++i) {
        perdev.row()
            .cell(std::uint64_t(kFirstId + i))
            .cell(std::to_string(base[i].failed) + "/" +
                  std::to_string(base[i].rounds))
            .cell(base[i].lockedOut ? "yes" : "no")
            .cell(std::to_string(fixed[i].rejects) + "/" +
                  std::to_string(fixed[i].attempts))
            .cell(fixed[i].locked ? "yes" : "no");
    }
    perdev.print(std::cout);
    std::cout << "\n";

    util::Table table({"policy", "rounds", "denied", "denial_rate",
                       "lockouts", "challenge_bits"});
    table.row()
        .cell("trust-ledger")
        .cell(hb_rounds)
        .cell(hb_denied)
        .cell(frr_trust)
        .cell(hb_locked)
        .cell(hb_bits);
    table.row()
        .cell("fixed-lockout")
        .cell(fx_attempts)
        .cell(fx_denied)
        .cell(frr_fixed)
        .cell(fx_locked)
        .cell(fx_bits);
    table.print(std::cout);
    std::cout << "proactive remaps: " << hb_remaps
              << ", marginal rounds: " << hb_marginal << " ("
              << fixed_s << " s baseline arm)\n";

    const authbench::Gates gates{
        {"heartbeat_determinism", deterministic},
        {"heartbeat_policy_gate", policy_wins},
    };
    const std::string path = out_dir + "/BENCH_heartbeat.json";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "FAIL: cannot write " << path << "\n";
        return 2;
    }
    authbench::Json j(os);
    j.open();
    j.field("schema", "heartbeat-drift-v2");
    j.field("quick", smoke);
    j.field("detected_simd",
            std::string(
                util::simdLevelName(util::detectedSimdLevel())));
    j.field("substrate", platformName());
    j.openObject("sweep");
    j.field("devices", std::uint64_t(p.devices));
    j.field("steps", std::uint64_t(p.steps));
    j.field("drift_ramp_steps", std::uint64_t(p.drift.rampSteps));
    j.field("drift_hold_steps", std::uint64_t(p.drift.holdSteps));
    j.field("drift_peak_temperature_c", p.drift.peakTemperatureDeltaC);
    j.field("drift_peak_aging_years", p.drift.peakAgingYears);
    j.field("drift_peak_sigma_mv", p.drift.peakSigmaMv);
    j.closeObject();
    j.openArray("benchmarks");
    j.openObject();
    j.field("name", "heartbeat_drift_sweep");
    j.field("simd", "scalar");
    j.field("ops", hb_rounds);
    j.field("ops_per_s",
            base_s > 0 ? double(hb_rounds) / base_s : 0.0);
    j.closeObject();
    j.openObject();
    j.field("name", "fixed_lockout_baseline");
    j.field("simd", "scalar");
    j.field("ops", fx_attempts);
    j.field("ops_per_s",
            fixed_s > 0 ? double(fx_attempts) / fixed_s : 0.0);
    j.closeObject();
    j.closeArray();
    j.openObject("policy");
    j.field("scheduled_rounds", scheduled);
    j.field("trust_rounds", hb_rounds);
    j.field("trust_failed_rounds", hb_failed);
    j.field("trust_marginal_rounds", hb_marginal);
    j.field("trust_denied_rounds", hb_denied);
    j.field("trust_denial_rate", frr_trust);
    j.field("trust_lockout_rate", lock_trust);
    j.field("trust_challenge_bits", hb_bits);
    j.field("trust_proactive_remaps", hb_remaps);
    j.field("fixed_attempts", fx_attempts);
    j.field("fixed_rejects", fx_rejects);
    j.field("fixed_denied_rounds", fx_denied);
    j.field("fixed_denial_rate", frr_fixed);
    j.field("fixed_lockout_rate", lock_fixed);
    j.field("fixed_challenge_bits", fx_bits);
    j.closeObject();
    authbench::writeGates(j, gates);
    j.close();
    std::cout << "wrote " << path << "\n";
    if (!authbench::reportGates(gates)) {
        std::cerr << "FAIL: heartbeat drift gate violated\n";
        return 1;
    }
    return 0;
}
