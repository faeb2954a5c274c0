#include "server/auth_flow.hpp"

#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace authenticache::server {

FlowOutput
AuthFlow::onRequest(SessionShard &sh, const protocol::AuthRequest &msg)
{
    FlowOutput out;
    if (!devices.contains(msg.deviceId)) {
        out.replies.push_back(protocol::ErrorMsg{"unknown device"});
        return out;
    }
    DeviceRecord &record = devices.at(msg.deviceId);
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

    // Idempotent retransmission handling: while this device already
    // has an outstanding challenge, a duplicated or retransmitted
    // AuthRequest re-issues the *same* challenge instead of burning
    // fresh CRPs on every lost reply.
    auto active = sh.activeAuthByDevice.find(msg.deviceId);
    if (active != sh.activeAuthByDevice.end()) {
        auto pending = sh.pendingAuths.find(active->second);
        if (pending != sh.pendingAuths.end()) {
            ++sh.counters.dupRequests;
            pending->second.deadline = sessions.sessionDeadline();
            sh.noteDeadline(active->second,
                            pending->second.deadline);
            protocol::ChallengeMsg again;
            again.nonce = active->second;
            again.challenge = pending->second.challenge;
            out.replies.push_back(std::move(again));
            return out;
        }
        // Stale index entry (evicted/expired session).
        sh.activeAuthByDevice.erase(active);
    }

    const auto &levels = record.challengeLevels();
    if (levels.empty()) {
        out.replies.push_back(
            protocol::ErrorMsg{"no challenge levels"});
        return out;
    }
    const ServerConfig &cfg = sessions.config();
    util::Rng &rng = sessions.deviceRng(sh, msg.deviceId);
    core::VddMv level = levels[rng.nextBelow(levels.size())];

    GeneratedChallenge gen;
    try {
        if (cfg.multiLevelChallenges && levels.size() >= 2)
            gen = generator.generateMultiLevel(record,
                                               cfg.challengeBits, rng);
        else
            gen = generator.generate(record, level, cfg.challengeBits,
                                     rng);
    } catch (const std::runtime_error &e) {
        out.replies.push_back(protocol::ErrorMsg{e.what()});
        return out;
    }

    // Retire-before-reply: the consumed pairs are journaled (and
    // synced at the batch boundary) before the challenge that
    // discloses them leaves the server. A crash in between only
    // over-retires -- the safe direction for no-reuse.
    if (sessions.journalingEnabled())
        sh.wal.push_back(journal::PairsRetired{
            msg.deviceId, std::move(gen.retired)});

    std::uint64_t nonce = sessions.makeNonce(sh, rng);
    std::uint64_t deadline = sessions.sessionDeadline();
    sh.pendingAuths[nonce] =
        PendingAuth{msg.deviceId, std::move(gen.expected),
                    gen.challenge, deadline};
    sh.noteDeadline(nonce, deadline);
    sh.activeAuthByDevice[msg.deviceId] = nonce;
    out.openedNonce = nonce;

    protocol::ChallengeMsg reply;
    reply.nonce = nonce;
    reply.challenge = std::move(gen.challenge);
    out.replies.push_back(std::move(reply));
    return out;
}

FlowOutput
AuthFlow::onResponse(SessionShard &sh,
                     const protocol::ResponseMsg &msg)
{
    FlowOutput out;
    auto it = sh.pendingAuths.find(msg.nonce);
    if (it == sh.pendingAuths.end()) {
        // A retransmitted response for an already-completed session
        // gets the original decision again -- and never re-counts
        // toward the lockout policy. Anything else is a replay or a
        // stray; it never grants access.
        if (const protocol::Message *done =
                sh.findCompleted(msg.nonce)) {
            ++sh.counters.dupCompletions;
            out.replies.push_back(*done);
            return out;
        }
        out.replies.push_back(protocol::ErrorMsg{"unknown nonce"});
        return out;
    }
    PendingAuth pending = std::move(it->second);
    sh.pendingAuths.erase(it);
    sh.forgetActiveAuth(pending.deviceId, msg.nonce);

    Verdict verdict = verify.verify(pending.expected, msg.response);

    const ServerConfig &cfg = sessions.config();
    DeviceRecord &record = devices.at(pending.deviceId);
    bool locked_now = false;
    if (verdict.accepted) {
        record.recordAccept();
    } else {
        record.recordReject();
        if (cfg.lockoutThreshold > 0 &&
            record.consecutiveFailures() >= cfg.lockoutThreshold) {
            record.lock();
            locked_now = true;
            ++sh.counters.lockouts;
            AUTH_LOG_WARN("server.auth")
                << "device " << pending.deviceId << " locked after "
                << record.consecutiveFailures()
                << " consecutive failures";
        }
    }
    if (sessions.journalingEnabled()) {
        sh.wal.push_back(journal::AuthOutcome{
            pending.deviceId, verdict.accepted, locked_now});
        if (cfg.counterCheckpointEvery > 0 &&
            (record.accepted() + record.rejected()) %
                    cfg.counterCheckpointEvery ==
                0)
            sh.wal.push_back(journal::CounterCheckpoint{
                pending.deviceId, record.accepted(),
                record.rejected(), record.consecutiveFailures()});
    }

    out.report = AuthReport{pending.deviceId, msg.nonce,
                            verdict.accepted, verdict.hammingDistance,
                            verdict.threshold};

    protocol::AuthDecision decision;
    decision.nonce = msg.nonce;
    decision.accepted = verdict.accepted;
    decision.hammingDistance = verdict.hammingDistance;
    sh.cacheCompleted(msg.nonce, decision, cfg.completedCacheSize);
    out.replies.push_back(std::move(decision));
    return out;
}

} // namespace authenticache::server
