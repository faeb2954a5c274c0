/**
 * @file
 * Continuous-authentication workload (heartbeat_fleet), in process
 * and with durability off: the transport and durability layers do no
 * work here, so a change to either should leave it unmoved.
 *
 * The fleet holds heartbeat sessions on a bound util::SimClock. Each
 * cadence step advances the clock, calls tickHeartbeats, answers the
 * pushed rounds device-side, and passes the proofs through
 * handleBatch on a pool of width 3. Session starts are staggered over
 * the cadence period so every step carries the same share of the
 * fleet.
 *
 * A seeded share of proofs carries bit errors: enough flips for a
 * marginal verdict, or one past the threshold for a failed one. A
 * flip is only injected while the device's trust can absorb the
 * penalty without dropping under the remap tier, so the ladder stops
 * at step-up (full-width challenges) and the census of clean,
 * marginal and failed verdicts and step-ups is a function of the seed
 * alone. The benchmark predicts every verdict and checks it.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <variant>

#include "common.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace protocol = ac::protocol;
namespace server = ac::server;

struct HbPlan
{
    /** Devices enrolled on the server. */
    std::size_t enrolled = 0;
    /** Of those, devices holding heartbeat sessions (the first ones). */
    std::size_t sessions = 0;
    /** Measured cadence steps (after the staggered starts). */
    std::size_t steps = 0;
    double failShare = 0.06;
    double marginalShare = 0.10;
};

constexpr int kSetupReps = 31;
constexpr std::size_t kReplayItems = 20000;
/** Steps per slice of the run-level medians (blockPercentile). */
constexpr std::size_t kStepsPerSlice = 100;

HbPlan
planFor(unsigned seconds)
{
    HbPlan p;
    // A server enrolls far more devices than hold heartbeat sessions
    // at once; 10k enrolled gives set-up real work to time.
    p.enrolled = 10000;
    // 50 rounds per step (the shipped cadence serves a quarter of the
    // sessions each step): long enough that a millisecond hiccup of
    // the host is a small share of a step. Every round retires its
    // pairs for good, so the consumed-pair sets grow with the run; a
    // small session fleet keeps that memory modest.
    p.sessions = 200;
    // At least 1000 steps, so the step p99 has ten samples beyond it.
    p.steps = std::max<std::size_t>(1000, 75 * std::size_t(seconds));
    return p;
}

/** Collects whatever the server sends to one sink. */
class CaptureSink : public protocol::ReplySink
{
  public:
    void send(const protocol::Message &m) override { msgs.push_back(m); }
    std::vector<protocol::Message> msgs;
};

/** The benchmark's model of one device: what it expects next. */
struct DeviceModel
{
    std::uint32_t trust = 0;
    bool stepUp = false;
    ac::util::Rng rng;
};

enum class Kind
{
    Clean,
    Marginal,
    Failed
};

/** One round answered this step. */
struct Round
{
    std::uint64_t device = 0;
    std::uint64_t nonce = 0;
    std::size_t bits = 0;
    Kind kind = Kind::Clean;
    std::uint32_t flips = 0;
};

struct HbOutcome
{
    std::vector<double> stepMs;
    std::vector<double> setupS;
    double tickNs = 0.0;
    /** CPU of every thread inside the server's calls. */
    double serverCpuNs = 0.0;
    double deviceNs = 0.0;
    double batchNs = 0.0;
    std::uint64_t rounds = 0;   ///< Measured-step rounds.
    std::uint64_t bits = 0;     ///< Challenge bits over those rounds.
    std::uint64_t predictedClean = 0;
    std::uint64_t predictedMarginal = 0;
    std::uint64_t predictedFailed = 0;
    std::uint64_t predictedStepUps = 0;
    std::uint64_t clean = 0;
    std::uint64_t marginal = 0;
    std::uint64_t failed = 0;
    std::uint64_t stepUps = 0;
    std::uint64_t remaps = 0;
    std::uint64_t revocations = 0;
    std::uint64_t mismatches = 0; ///< Verdicts off the prediction.
    std::string firstMismatch;
    // Trace replays.
    double decodeUs = 0.0;
    double generateUs = 0.0;
    double verifyUs = 0.0;
    std::size_t replayFrames = 0;
    std::size_t replayGenerate = 0;
    std::size_t replayVerify = 0;
    std::size_t spans = 0;
};

/** Device the server issued @p nonce to (0 when unknown). */
std::uint64_t
deviceForNonce(server::AuthenticationServer &srv, std::uint64_t nonce)
{
    server::SessionShard &sh = srv.sessions().shardForNonce(nonce);
    ac::util::MutexLock lock(sh.mutex);
    auto it = sh.heartbeatByNonce.find(nonce);
    return it == sh.heartbeatByNonce.end() ? 0 : it->second;
}

class HeartbeatFleet
{
  public:
    HeartbeatFleet(const HbPlan &plan_, const Fleet &fleet_,
                   server::AuthenticationServer &srv_, std::uint64_t seed,
                   Tracer &tracer_, HbOutcome &out_)
        : plan(plan_), fleet(fleet_), srv(srv_), tracer(tracer_),
          out(out_), pol(srv_.config().trust), pool(3)
    {
        // The verifier's EER thresholds at both widths, looked up
        // before the clock starts.
        for (std::size_t bits :
             {pol.heartbeatBits, srv.config().challengeBits})
            thresholds[bits] = static_cast<std::uint32_t>(
                srv.verifier().thresholdFor(bits));
        models.resize(plan.sessions);
        for (std::size_t i = 0; i < plan.sessions; ++i) {
            models[i].trust = std::min(pol.initial, pol.max);
            models[i].rng = ac::util::Rng::forStream(
                seed ^ 0x4EA7'BEA7ull, Fleet::idOf(i));
        }
    }

    void
    run()
    {
        srv.bindClock(&clock);
        const std::uint64_t period =
            std::max<std::uint64_t>(1, pol.periodSteps);
        // Staggered starts: one slice of the fleet per step of the
        // first period, each slice answering its first round.
        for (std::uint64_t s = 0; s < period; ++s) {
            CaptureSink sink;
            for (std::size_t i = s; i < plan.sessions; i += period)
                srv.startHeartbeat(Fleet::idOf(i), sink);
            step(sink, false);
            clock.advance();
        }
        // The clock now stands at the first slice's due step; each
        // step serves exactly one slice, then advances.
        for (std::size_t k = 0; k < plan.steps; ++k) {
            const std::int64_t span = tracer.open(SpanName::HbStep);
            CaptureSink sink;
            const std::int64_t c0 = processCpuNs();
            const std::int64_t t0 = nowNs();
            srv.tick();
            srv.tickHeartbeats(sink);
            const std::int64_t t1 = nowNs();
            out.serverCpuNs += static_cast<double>(processCpuNs() - c0);
            tracer.record(SpanName::HbTick, t0, t1, span);
            out.tickNs += static_cast<double>(t1 - t0);
            const double ms = static_cast<double>(t1 - t0) / 1e6 +
                              step(sink, true, span);
            tracer.close(span);
            out.stepMs.push_back(ms);
            clock.advance();
        }
        srv.bindClock(nullptr);
    }

    /** Proof frames, (expected, response) pairs, and each round's
     *  device and width, for replays. */
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::pair<ac::util::BitVec, ac::util::BitVec>> pairs;
    std::vector<std::uint64_t> devices;
    std::vector<std::size_t> widths;

  private:
    /**
     * Answer every Heartbeat in @p sink and check the verdicts.
     * @return milliseconds spent in the device side and handleBatch
     * (attribution and checks are outside the timed calls).
     */
    double
    step(CaptureSink &sink, bool measured, std::int64_t parent = -1)
    {
        // Attribution, untimed: the sink carries no device id, so
        // each nonce is looked up in its shard's heartbeatByNonce.
        std::vector<Round> rounds;
        std::vector<const protocol::Heartbeat *> beats;
        for (const auto &m : sink.msgs) {
            const auto *hb = std::get_if<protocol::Heartbeat>(&m);
            if (hb == nullptr) {
                mismatch("tick sent a message other than Heartbeat");
                continue;
            }
            Round r;
            r.nonce = hb->nonce;
            r.device = deviceForNonce(srv, hb->nonce);
            r.bits = hb->challenge.size();
            if (r.device == 0) {
                mismatch("heartbeat nonce not in heartbeatByNonce");
                continue;
            }
            if (Fleet::indexOf(r.device) >= models.size()) {
                mismatch("heartbeat for a device without a session");
                continue;
            }
            const DeviceModel &dm = models[Fleet::indexOf(r.device)];
            const std::size_t want =
                dm.stepUp ? srv.config().challengeBits
                          : pol.heartbeatBits;
            if (r.bits != want)
                mismatch("challenge width off the predicted tier");
            rounds.push_back(r);
            beats.push_back(hb);
        }

        // Device side, timed: evaluate, inject the seeded errors,
        // encode the proof.
        const std::int64_t t0 = nowNs();
        std::vector<server::Frame> batch(rounds.size());
        std::vector<CaptureSink> replies(rounds.size());
        for (std::size_t i = 0; i < rounds.size(); ++i) {
            Round &r = rounds[i];
            DeviceModel &dm = models[Fleet::indexOf(r.device)];
            ac::util::BitVec honest = ac::core::evaluate(
                fleet.deviceMaps[Fleet::indexOf(r.device)],
                beats[i]->challenge);
            ac::util::BitVec resp = honest;
            decide(dm, r);
            if (r.flips > 0)
                for (std::uint64_t pos :
                     dm.rng.sampleDistinct(r.bits, r.flips))
                    resp.flip(static_cast<std::size_t>(pos));
            protocol::Message proof{
                protocol::HeartbeatProof{r.nonce, resp}};
            batch[i].bytes = protocol::encodeMessage(proof);
            batch[i].reply = &replies[i];
            if (tracer.enabled() && frames.size() < kReplayItems) {
                frames.push_back(batch[i].bytes);
                pairs.emplace_back(std::move(honest), std::move(resp));
                devices.push_back(r.device);
                widths.push_back(r.bits);
            }
        }
        const std::int64_t t1 = nowNs();
        const std::int64_t c1 = processCpuNs();
        srv.handleBatch(batch, pool);
        const std::int64_t c2 = processCpuNs();
        const std::int64_t t2 = nowNs();
        tracer.record(SpanName::DeviceEval, t0, t1, parent);
        tracer.record(SpanName::HbProofs, t1, t2, parent);

        if (measured) {
            out.deviceNs += static_cast<double>(t1 - t0);
            out.batchNs += static_cast<double>(t2 - t1);
            out.serverCpuNs += static_cast<double>(c2 - c1);
            out.rounds += rounds.size();
            for (const Round &r : rounds)
                out.bits += r.bits;
        }
        for (std::size_t i = 0; i < rounds.size(); ++i)
            verdict(rounds[i], replies[i]);
        return static_cast<double>(t2 - t0) / 1e6;
    }

    /** Choose this round's error class from the device's stream. */
    void
    decide(DeviceModel &dm, Round &r)
    {
        const std::uint32_t threshold = thresholds.at(r.bits);
        const double u = dm.rng.nextDouble();
        // Guards keep trust at or above the remap tier.
        if (u < plan.failShare &&
            dm.trust >= pol.remapBelow + pol.failPenalty &&
            threshold + 1 <= r.bits) {
            r.kind = Kind::Failed;
            r.flips = threshold + 1;
        } else if (u < plan.failShare + plan.marginalShare &&
                   dm.trust >= pol.remapBelow + pol.marginalPenalty &&
                   threshold > 0) {
            r.kind = Kind::Marginal;
            r.flips = static_cast<std::uint32_t>(
                (std::uint64_t(threshold) * pol.marginPercent + 99) /
                100);
        } else {
            r.kind = Kind::Clean;
            r.flips = 0;
        }
    }

    /** Check the server's verdict against the model, then advance it. */
    void
    verdict(const Round &r, const CaptureSink &sink)
    {
        DeviceModel &dm = models[Fleet::indexOf(r.device)];
        std::uint32_t trust = dm.trust;
        switch (r.kind) {
        case Kind::Clean:
            ++out.predictedClean;
            trust = std::min(trust + pol.cleanRecovery, pol.max);
            break;
        case Kind::Marginal:
            ++out.predictedMarginal;
            trust -= pol.marginalPenalty;
            break;
        case Kind::Failed:
            ++out.predictedFailed;
            trust -= pol.failPenalty;
            break;
        }
        const bool wantStepUp = trust < pol.stepUpBelow;
        if (wantStepUp && !dm.stepUp)
            ++out.predictedStepUps;
        dm.trust = trust;
        dm.stepUp = wantStepUp;

        if (sink.msgs.size() != 1) {
            mismatch("proof did not get exactly one reply");
            return;
        }
        const auto *tu = std::get_if<protocol::TrustUpdate>(&sink.msgs[0]);
        const auto tier = static_cast<std::uint8_t>(
            wantStepUp ? protocol::TrustTier::StepUp
                       : protocol::TrustTier::Nominal);
        if (tu == nullptr || tu->nonce != r.nonce ||
            tu->accepted != (r.kind != Kind::Failed) ||
            tu->hammingDistance != r.flips || tu->trust != trust ||
            tu->tier != tier)
            mismatch("verdict differs from the device model");
    }

    void
    mismatch(const std::string &what)
    {
        if (out.mismatches++ == 0)
            out.firstMismatch = what;
    }

    const HbPlan &plan;
    const Fleet &fleet;
    server::AuthenticationServer &srv;
    Tracer &tracer;
    HbOutcome &out;
    const server::TrustPolicy &pol;
    ac::util::ThreadPool pool;
    ac::util::SimClock clock;
    std::vector<DeviceModel> models;
    std::map<std::size_t, std::uint32_t> thresholds; ///< bits -> EER.
};

server::ServerConfig
serverConfig()
{
    // Shipped defaults: 128-bit step-up challenges, 64-bit
    // heartbeats, a 4-step cadence.
    return server::ServerConfig{};
}

HbOutcome
runHeartbeatOnce(const RunOptions &opt, const HbPlan &plan,
                 const Fleet &fleet, bool traced)
{
    HbOutcome o;
    const server::ServerConfig cfg = serverConfig();
    std::unique_ptr<server::AuthenticationServer> srv;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        srv.reset();
        std::vector<server::DeviceRecord> records = fleet.records;
        const std::int64_t t0 = nowNs();
        srv = std::make_unique<server::AuthenticationServer>(cfg,
                                                             opt.seed);
        for (auto &r : records)
            srv->enrollRecord(std::move(r));
        o.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    Tracer tracer(traced, 0);
    HeartbeatFleet fw(plan, fleet, *srv, opt.seed, tracer, o);
    fw.run();
    o.clean = srv->sessions().heartbeatsClean();
    o.marginal = srv->sessions().heartbeatsMarginal();
    o.failed = srv->sessions().heartbeatsFailed();
    o.stepUps = srv->stepUps();
    o.remaps = srv->proactiveRemaps();
    o.revocations = srv->revocations();

    if (traced) {
        // Replay the run's own inputs through single layers.
        o.replayFrames = fw.frames.size();
        o.decodeUs = usPerItem(tracer, SpanName::ReplayDecode,
                               o.replayFrames, [&](std::size_t i) {
                                   auto m = protocol::decodeMessage(
                                       fw.frames[i]);
                                   (void)m;
                               });

        // End-state copies of every session device's record, each
        // round replayed on its own device's copy at its own width.
        std::vector<server::DeviceRecord> copies;
        for (std::size_t i = 0; i < plan.sessions; ++i)
            copies.push_back(srv->database().at(Fleet::idOf(i)));
        server::ChallengeGenerator generator(ac::util::Rng(opt.seed));
        ac::util::Rng rng(opt.seed + 1);
        ac::core::EvalScratch scratch;
        o.replayGenerate = fw.widths.size();
        o.generateUs = usPerItem(
            tracer, SpanName::ReplayGenerate, o.replayGenerate,
            [&](std::size_t i) {
                auto g = generator.generate(
                    copies[Fleet::indexOf(fw.devices[i])], kLevel,
                    fw.widths[i], rng, scratch);
                (void)g;
            });

        o.replayVerify = fw.pairs.size();
        o.verifyUs = usPerItem(tracer, SpanName::ReplayVerify,
                               o.replayVerify, [&](std::size_t i) {
                                   auto v = srv->verifier().verify(
                                       fw.pairs[i].first,
                                       fw.pairs[i].second);
                                   (void)v;
                               });
        o.spans = writeSpans(opt, {&tracer});
    }
    return o;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

} // namespace

void
runHeartbeatWorkload(const RunOptions &opt, Report &report)
{
    const HbPlan plan = planFor(opt.seconds);
    const Fleet fleet = makeFleet(plan.enrolled, opt.seed);
    // The fleet is the device side's; the memory figure is what the
    // process grows by past it.
    const double rssBase = peakRssMb();
    {
        std::ostringstream os;
        os << "plan: " << plan.enrolled << " devices enrolled, "
           << plan.sessions << " heartbeat sessions, "
           << plan.steps << " measured cadence steps, fail share "
           << plan.failShare << ", marginal share " << plan.marginalShare
           << ", durability off, no transport";
        report.note(os.str());
    }

    std::optional<HbOutcome> untraced;
    if (opt.trace)
        untraced = runHeartbeatOnce(opt, plan, fleet, false);
    const HbOutcome o = runHeartbeatOnce(opt, plan, fleet, opt.trace);

    const std::uint64_t verdicts =
        o.predictedClean + o.predictedMarginal + o.predictedFailed;
    report.attempted = verdicts;
    report.failed = o.mismatches;
    if (o.mismatches > 0)
        report.check(false, std::to_string(o.mismatches) +
                                " verdicts off the model, first: " +
                                o.firstMismatch);
    report.check(o.clean == o.predictedClean &&
                     o.marginal == o.predictedMarginal &&
                     o.failed == o.predictedFailed &&
                     o.stepUps == o.predictedStepUps,
                 "heartbeat census equals the seeded prediction");
    if (untraced)
        report.check(untraced->mismatches == 0,
                     "untraced reference run: every verdict on the model");
    report.check(o.remaps == 0 && o.revocations == 0,
                 "no device reached the remap or revoke tier");
    report.check(o.marginal > 0 && o.failed > 0 && o.stepUps > 0,
                 "marginal, failed and step-up rounds all occur");

    bool ok50 = false;
    bool ok90 = false;
    bool ok99 = false;
    const double stepS = sum(o.stepMs) / 1e3;
    const std::size_t blocks = o.stepMs.size() / kStepsPerSlice;
    const double p50 = blockPercentile(o.stepMs, blocks, 0.50, ok50);
    const double p90 = blockPercentile(o.stepMs, blocks, 0.90, ok90);
    const double p99 = percentile(o.stepMs, 0.99, ok99);
    report.check(ok90 && ok99,
                 "at least ten samples beyond every tail percentile");
    report.add("p50_ms", p50, "ms", o.stepMs.size());
    // Only server threads run inside tick and handleBatch, so the
    // process CPU over those calls is the server's.
    report.add("server_cpu_us_per_op",
               o.serverCpuNs / 1e3 /
                   static_cast<double>(std::max<std::uint64_t>(1, o.rounds)),
               "us", o.rounds);
    report.add("setup_s", median(o.setupS), "s", o.setupS.size());
    report.add("server_peak_rss_mb", peakRssMb() - rssBase, "MB", 1);
    report.note("peak resident set " + std::to_string(peakRssMb()) +
                " MB, of which " + std::to_string(rssBase) +
                " MB before the first server");
    report.add("fail_frac",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, verdicts)),
               "1", verdicts);

    const double rounds =
        static_cast<double>(std::max<std::uint64_t>(1, o.rounds));
    // Steps back to back: verdicts per second of summed step time.
    report.add("heartbeat.rounds_per_s",
               stepS > 0 ? static_cast<double>(o.rounds) / stepS : 0.0,
               "1/s", o.rounds);
    report.add("heartbeat.step_p90_ms", p90, "ms", o.stepMs.size());
    report.add("heartbeat.step_p99_ms", p99, "ms", o.stepMs.size());
    report.add("heartbeat.tick_us_per_round", o.tickNs / 1e3 / rounds,
               "us", o.rounds);
    report.add("heartbeat.proof_us_per_round", o.batchNs / 1e3 / rounds,
               "us", o.rounds);
    report.add("heartbeat.challenge_bits_per_round",
               static_cast<double>(o.bits) / rounds, "bits", o.rounds);
    report.add("heartbeat.clean", static_cast<double>(o.clean), "count", 1);
    report.add("heartbeat.marginal", static_cast<double>(o.marginal),
               "count", 1);
    report.add("heartbeat.failed", static_cast<double>(o.failed), "count",
               1);
    report.add("heartbeat.step_ups", static_cast<double>(o.stepUps),
               "count", 1);
    report.add("loadgen.busy_frac",
               stepS > 0 ? o.deviceNs / 1e9 / stepS : 0.0, "1", 1);
    report.add("loadgen.eval_us_per_response", o.deviceNs / 1e3 / rounds,
               "us", o.rounds);

    if (opt.trace) {
        report.add("protocol.decode_us_per_frame", o.decodeUs, "us",
                   o.replayFrames);
        report.add("challenge_gen.us_per_challenge", o.generateUs, "us",
                   o.replayGenerate);
        report.add("verifier.us_per_verify", o.verifyUs, "us",
                   o.replayVerify);
        const double base = sum(untraced->stepMs);
        report.add("trace.overhead_frac",
                   base > 0 ? sum(o.stepMs) / base - 1.0 : 0.0, "1", 1);
        report.add("trace.spans", static_cast<double>(o.spans), "count",
                   1);
    }
}

} // namespace perfbench
