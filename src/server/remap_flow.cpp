#include "server/remap_flow.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/fuzzy_extractor.hpp"
#include "crypto/key.hpp"
#include "util/logging.hpp"

namespace authenticache::server {

FlowOutput
RemapFlow::start(SessionShard &sh, std::uint64_t device_id)
{
    FlowOutput out;
    // Precondition failures are protocol-level rejects: a remap aimed
    // at a bad target must not take the verifier down.
    if (!devices.contains(device_id)) {
        out.replies.push_back(
            protocol::ErrorMsg{"remap: unknown device"});
        return out;
    }
    DeviceRecord &record = devices.at(device_id);
    if (record.reservedLevels().empty()) {
        out.replies.push_back(
            protocol::ErrorMsg{"remap: no reserved levels"});
        return out;
    }

    const ServerConfig &cfg = sessions.config();
    util::Rng &rng = sessions.deviceRng(sh, device_id);
    core::VddMv level = record.reservedLevels()[rng.nextBelow(
        record.reservedLevels().size())];

    const std::size_t bits =
        cfg.remapSecretBits * cfg.fuzzyRepetition;
    GeneratedChallenge gen;
    try {
        gen = generator.generateReserved(record, level, bits, rng);
    } catch (const std::runtime_error &e) {
        out.replies.push_back(
            protocol::ErrorMsg{std::string("remap: ") + e.what()});
        return out;
    }

    crypto::FuzzyExtractor extractor(cfg.fuzzyRepetition);
    auto extraction = extractor.generate(gen.expected, rng);

    std::uint64_t nonce = sessions.makeNonce(sh, rng);
    if (sessions.journalingEnabled()) {
        sh.wal.push_back(journal::PairsRetired{
            device_id, std::move(gen.retired), {}});
        sh.wal.push_back(journal::RemapPrepared{device_id, nonce});
    }
    std::uint64_t deadline = sessions.sessionDeadline();
    sh.pendingRemaps[nonce] =
        PendingRemap{device_id, extraction.key, deadline};
    sh.noteDeadline(nonce, deadline);
    out.openedNonce = nonce;

    protocol::RemapRequest msg;
    msg.nonce = nonce;
    msg.challenge = std::move(gen.challenge);
    msg.helper = std::move(extraction.helper);
    msg.repetition = cfg.fuzzyRepetition;
    out.replies.push_back(std::move(msg));
    return out;
}

FlowOutput
RemapFlow::onAck(SessionShard &sh, const protocol::RemapAck &msg)
{
    FlowOutput out;
    auto it = sh.pendingRemaps.find(msg.nonce);
    if (it == sh.pendingRemaps.end()) {
        // Retransmitted ack for a completed exchange: resend the
        // commit verbatim so a lost commit frame cannot desync keys.
        if (const protocol::Message *done =
                sh.findCompleted(msg.nonce)) {
            ++sh.counters.dupCompletions;
            out.replies.push_back(*done);
        }
        return out;
    }

    // Two-phase commit: only switch keys when the client proves it
    // derived the same one (a mis-derived key would desynchronize
    // both sides until the next rotation).
    auto expected = crypto::keyConfirmation(it->second.newKey,
                                            msg.nonce);
    bool confirmed =
        msg.success &&
        std::equal(expected.begin(), expected.end(),
                   msg.confirmation.begin(), msg.confirmation.end());

    if (confirmed) {
        devices.at(it->second.deviceId).setMapKey(it->second.newKey);
        ++sh.counters.remapsCommitted;
        AUTH_LOG_INFO("server.remap")
            << "device " << it->second.deviceId << " key rotated";
    } else {
        ++sh.counters.remapsRejected;
        AUTH_LOG_WARN("server.remap")
            << "device " << it->second.deviceId
            << " remap rejected (key confirmation failed)";
    }
    // The key switch is a single journal record: after recovery the
    // device's key is fully old or fully new, never in between.
    if (sessions.journalingEnabled()) {
        if (confirmed)
            sh.wal.push_back(journal::RemapCommitted{
                it->second.deviceId, msg.nonce, it->second.newKey});
        else
            sh.wal.push_back(journal::RemapRejected{
                it->second.deviceId, msg.nonce});
    }
    protocol::RemapCommit commit{msg.nonce, confirmed};
    sh.cacheCompleted(msg.nonce, commit,
                      sessions.config().completedCacheSize);
    out.replies.push_back(commit);
    sh.pendingRemaps.erase(it);
    return out;
}

} // namespace authenticache::server
