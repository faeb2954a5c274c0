#include "server/heartbeat_flow.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace authenticache::server {

FlowOutput
HeartbeatFlow::start(SessionShard &sh, std::uint64_t device_id)
{
    FlowOutput out;
    if (!devices.contains(device_id)) {
        out.replies.push_back(protocol::ErrorMsg{"unknown device"});
        return out;
    }
    DeviceRecord &record = devices.at(device_id);
    if (record.revoked()) {
        out.replies.push_back(protocol::ErrorMsg{"device revoked"});
        return out;
    }
    if (record.locked()) {
        out.replies.push_back(protocol::ErrorMsg{"device locked"});
        return out;
    }
    if (record.reenrollRequired()) {
        out.replies.push_back(
            protocol::ErrorMsg{"re-enrollment required"});
        return out;
    }
    if (sh.heartbeats.count(device_id) != 0) {
        out.replies.push_back(
            protocol::ErrorMsg{"heartbeat already active"});
        return out;
    }

    const TrustPolicy &pol = sessions.config().trust;
    record.setTrustScore(std::min(pol.initial, pol.max));
    if (sessions.journalingEnabled())
        sh.wal.push_back(journal::TrustUpdate{
            device_id, record.trustScore(), record.remapBudgetUsed(),
            record.reenrollRequired()});

    HeartbeatSession session;
    session.deviceId = device_id;
    session.stepUp = record.trustScore() < pol.stepUpBelow;
    auto it = sh.heartbeats.emplace(device_id, session).first;
    issueRound(sh, it->second, out);
    return out;
}

void
HeartbeatFlow::issueRound(SessionShard &sh, HeartbeatSession &session,
                          FlowOutput &out)
{
    DeviceRecord &record = devices.at(session.deviceId);
    const ServerConfig &cfg = sessions.config();
    const auto &levels = record.challengeLevels();
    const std::uint64_t device = session.deviceId;

    // A session that cannot issue its next round (no levels / pair
    // supply exhausted) is torn down rather than left to strand
    // wheel entries forever. (Inlined rather than a lambda: the
    // thread-safety analysis treats lambdas as lock-unaware
    // functions; see SessionManager::sumCounter.)
    std::string abort_reason;
    GeneratedChallenge gen;
    if (levels.empty()) {
        abort_reason = "no challenge levels";
    } else {
        util::Rng &rng = sessions.deviceRng(sh, device);
        core::VddMv level = levels[rng.nextBelow(levels.size())];
        const std::size_t bits = session.stepUp
                                     ? cfg.challengeBits
                                     : cfg.trust.heartbeatBits;
        try {
            gen = generator.generate(record, level, bits, rng);
        } catch (const std::runtime_error &e) {
            abort_reason = e.what();
        }
    }
    if (!abort_reason.empty()) {
        if (session.activeNonce != 0)
            sh.heartbeatByNonce.erase(session.activeNonce);
        sh.heartbeats.erase(device);
        out.replies.push_back(
            protocol::ErrorMsg{std::move(abort_reason)});
        return;
    }

    // Retire-before-reply, same as AuthFlow.
    if (sessions.journalingEnabled())
        sh.wal.push_back(
            journal::PairsRetired{device, std::move(gen.retired)});

    const std::uint64_t nonce =
        sessions.makeNonce(sh, sessions.deviceRng(sh, device));
    session.expected = std::move(gen.expected);
    session.activeNonce = nonce;
    ++session.seq;
    // Clamped to >= 1: the re-armed entry must land strictly after
    // the tick that issued it, or the cadence walk would never drain.
    session.nextDue =
        sessions.currentStep() +
        std::max<std::uint64_t>(1, cfg.trust.periodSteps);
    sh.heartbeatByNonce[nonce] = device;
    sh.heartbeatWheel.emplace(session.nextDue, device);

    protocol::Heartbeat beat;
    beat.nonce = nonce;
    beat.seq = session.seq;
    beat.challenge = std::move(gen.challenge);
    out.replies.push_back(std::move(beat));
}

FlowOutput
HeartbeatFlow::onProof(SessionShard &sh,
                       const protocol::HeartbeatProof &msg)
{
    FlowOutput out;
    auto route = sh.heartbeatByNonce.find(msg.nonce);
    if (route == sh.heartbeatByNonce.end()) {
        // Retransmitted proof for an answered round: replay the
        // original verdict, never double-count it into the ledger.
        if (const protocol::Message *done =
                sh.findCompleted(msg.nonce)) {
            ++sh.counters.dupCompletions;
            out.replies.push_back(*done);
            return out;
        }
        out.replies.push_back(
            protocol::ErrorMsg{"unknown heartbeat nonce"});
        return out;
    }
    const std::uint64_t device = route->second;
    auto hb = sh.heartbeats.find(device);
    if (hb == sh.heartbeats.end() ||
        hb->second.activeNonce != msg.nonce) {
        sh.heartbeatByNonce.erase(route);
        out.replies.push_back(
            protocol::ErrorMsg{"unknown heartbeat nonce"});
        return out;
    }
    HeartbeatSession &session = hb->second;
    sh.heartbeatByNonce.erase(route);
    session.activeNonce = 0;

    Verdict verdict = verify.verify(session.expected, msg.response);
    const TrustPolicy &pol = sessions.config().trust;
    const bool marginal =
        verdict.accepted && verdict.threshold > 0 &&
        static_cast<std::uint64_t>(verdict.hammingDistance) * 100 >=
            static_cast<std::uint64_t>(verdict.threshold) *
                pol.marginPercent;
    applyVerdict(sh, session, msg.nonce, verdict.accepted,
                 verdict.hammingDistance, marginal, out);
    return out;
}

std::vector<FlowOutput>
HeartbeatFlow::tick(SessionShard &sh, std::uint64_t now)
{
    std::vector<FlowOutput> outs;
    // Drain every due wheel entry *before* processing any of them:
    // issueRound re-arms a session by inserting a fresh entry, and a
    // saved end iterator would walk into it (a new last element sits
    // before the end() sentinel), scoring rounds issued this very
    // tick as missed. Entries are validated lazily against the
    // session's current nextDue.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> due;
    for (auto it = sh.heartbeatWheel.begin();
         it != sh.heartbeatWheel.end() && it->first <= now;
         it = sh.heartbeatWheel.erase(it))
        due.emplace_back(it->first, it->second);
    for (const auto &[when, device] : due) {
        auto hb = sh.heartbeats.find(device);
        if (hb == sh.heartbeats.end() || hb->second.nextDue != when)
            continue; // Stale entry (stopped or re-armed session).
        FlowOutput out;
        if (hb->second.activeNonce != 0) {
            // The proof never arrived: a dead (or cloned) client
            // drains trust instead of holding it, which bounds the
            // CRP burn of an abandoned session via revocation.
            sh.heartbeatByNonce.erase(hb->second.activeNonce);
            hb->second.activeNonce = 0;
            applyVerdict(sh, hb->second, 0, false, 0, false, out);
            hb = sh.heartbeats.find(device);
        }
        if (hb != sh.heartbeats.end())
            issueRound(sh, hb->second, out);
        outs.push_back(std::move(out));
    }
    return outs;
}

bool
HeartbeatFlow::stop(SessionShard &sh, std::uint64_t device_id)
{
    auto hb = sh.heartbeats.find(device_id);
    if (hb == sh.heartbeats.end())
        return false;
    if (hb->second.activeNonce != 0)
        sh.heartbeatByNonce.erase(hb->second.activeNonce);
    sh.heartbeats.erase(hb);
    return true;
}

void
HeartbeatFlow::applyVerdict(SessionShard &sh,
                            HeartbeatSession &session,
                            std::uint64_t nonce, bool accepted,
                            std::uint32_t hamming_distance,
                            bool marginal, FlowOutput &out)
{
    const ServerConfig &cfg = sessions.config();
    const TrustPolicy &pol = cfg.trust;
    const std::uint64_t device = session.deviceId;
    DeviceRecord &record = devices.at(device);

    if (!accepted)
        ++sh.counters.heartbeatsFailed;
    else if (marginal)
        ++sh.counters.heartbeatsMarginal;
    else
        ++sh.counters.heartbeatsClean;

    std::uint32_t trust = record.trustScore();
    if (!accepted) {
        trust = trust > pol.failPenalty ? trust - pol.failPenalty : 0;
    } else if (marginal) {
        trust = trust > pol.marginalPenalty
                    ? trust - pol.marginalPenalty
                    : 0;
    } else {
        trust = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(trust) + pol.cleanRecovery,
            pol.max));
    }
    if (trust < record.trustScore())
        ++sh.counters.trustDecays;
    record.setTrustScore(trust);

    // Degradation ladder, most severe tier first.
    protocol::TrustTier tier = protocol::TrustTier::Nominal;
    bool revoked_now = false;
    if (trust < pol.revokeBelow) {
        tier = protocol::TrustTier::Revoked;
        revoked_now = true;
        record.revoke();
        ++sh.counters.revocations;
        AUTH_LOG_WARN("server.heartbeat")
            << "device " << device << " revoked at trust " << trust;
    } else if (trust < pol.remapBelow) {
        if (record.remapBudgetUsed() < pol.remapBudget) {
            // Proactive remap: refresh the logical map before auth
            // becomes unreliable, and grant back enough trust to
            // keep the session off the revocation edge while the
            // fresh map takes effect.
            record.setRemapBudgetUsed(record.remapBudgetUsed() + 1);
            trust = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(
                    static_cast<std::uint64_t>(trust) +
                        pol.remapRecovery,
                    pol.max));
            record.setTrustScore(trust);
            tier = protocol::TrustTier::RemapScheduled;
            ++sh.counters.proactiveRemaps;
        } else {
            tier = protocol::TrustTier::ReenrollRequired;
            record.setReenrollRequired(true);
            AUTH_LOG_WARN("server.heartbeat")
                << "device " << device
                << " remap budget exhausted; re-enrollment required";
        }
    }
    if (!revoked_now && tier != protocol::TrustTier::ReenrollRequired) {
        const bool want_step_up = trust < pol.stepUpBelow;
        if (want_step_up && !session.stepUp)
            ++sh.counters.stepUps;
        session.stepUp = want_step_up;
        if (want_step_up && tier == protocol::TrustTier::Nominal)
            tier = protocol::TrustTier::StepUp;
    }

    // Journal the absolute post-adjustment state before anything that
    // discloses it; revocation follows as its own event so every
    // event-stream prefix stays consistent.
    if (sessions.journalingEnabled()) {
        sh.wal.push_back(journal::TrustUpdate{
            device, trust, record.remapBudgetUsed(),
            record.reenrollRequired()});
        if (revoked_now)
            sh.wal.push_back(journal::DeviceRevoked{device});
    }

    // Verdict reply (absent for a missed round: nothing asked).
    if (nonce != 0) {
        protocol::TrustUpdate verdict;
        verdict.nonce = nonce;
        verdict.trust = trust;
        verdict.tier = static_cast<std::uint8_t>(tier);
        verdict.accepted = accepted;
        verdict.hammingDistance = hamming_distance;
        sh.cacheCompleted(nonce, verdict, cfg.completedCacheSize);
        out.replies.push_back(std::move(verdict));
    }

    if (tier == protocol::TrustTier::RemapScheduled) {
        // Same locked shard: the remap flow's replies (and any
        // opened-nonce ranking) ride this frame's FlowOutput.
        FlowOutput remap_out = remap.start(sh, device);
        for (auto &reply : remap_out.replies)
            out.replies.push_back(std::move(reply));
        if (remap_out.openedNonce)
            out.openedNonce = remap_out.openedNonce;
    }
    if (revoked_now)
        out.replies.push_back(
            protocol::Revoke{device, "trust exhausted"});
    if (revoked_now || tier == protocol::TrustTier::ReenrollRequired)
        sh.heartbeats.erase(device);
}

} // namespace authenticache::server
