#include "server/front_end.hpp"

#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "server/durability.hpp"

namespace authenticache::server {

std::optional<unsigned>
ServerFrontEnd::route(const protocol::Message &msg) const
{
    if (auto *req = std::get_if<protocol::AuthRequest>(&msg))
        return sessions.shardIndexForDevice(req->deviceId);
    if (auto *resp = std::get_if<protocol::ResponseMsg>(&msg))
        return sessions.shardIndexForNonce(resp->nonce);
    if (auto *ack = std::get_if<protocol::RemapAck>(&msg))
        return sessions.shardIndexForNonce(ack->nonce);
    if (auto *proof = std::get_if<protocol::HeartbeatProof>(&msg))
        return sessions.shardIndexForNonce(proof->nonce);
    return std::nullopt;
}

FlowOutput
ServerFrontEnd::dispatch(unsigned shard, const protocol::Message &msg)
{
    try {
        SessionShard &sh = sessions.shard(shard);
        util::MutexLock lock(sh.mutex);
        if (auto *req = std::get_if<protocol::AuthRequest>(&msg))
            return auth.onRequest(sh, *req);
        if (auto *resp = std::get_if<protocol::ResponseMsg>(&msg))
            return auth.onResponse(sh, *resp);
        if (auto *ack = std::get_if<protocol::RemapAck>(&msg))
            return remap.onAck(sh, *ack);
        return heartbeat.onProof(
            sh, std::get<protocol::HeartbeatProof>(msg));
    } catch (const std::exception &e) {
        // Programmer-error invariants aside, nothing a frame carries
        // may crash the verifier: reject the frame and move on.
        FlowOutput out;
        out.replies.push_back(
            protocol::ErrorMsg{std::string("server: ") + e.what()});
        return out;
    }
}

void
ServerFrontEnd::flushJournal()
{
    if (dur == nullptr)
        return;
    // Shard index order, under each shard's mutex: the journal byte
    // stream is a pure function of the batch contents, independent of
    // the thread count (the determinism contract extends to disk).
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        SessionShard &sh = sessions.shard(s);
        util::MutexLock lock(sh.mutex);
        for (auto &event : sh.wal)
            dur->append(event);
        sh.wal.clear();
    }
    dur->sync();
}

void
ServerFrontEnd::mergeOutputs(std::span<Frame> frames,
                             std::vector<FlowOutput> &outputs,
                             std::uint64_t ordinal_base)
{
    // Sync-before-reply: everything this batch mutated becomes
    // durable before the first reply that could disclose it.
    flushJournal();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (frames[i].reply != nullptr) {
            for (const auto &reply : outputs[i].replies)
                frames[i].reply->send(reply);
        }
        if (outputs[i].report)
            log.push_back(*outputs[i].report);
        if (outputs[i].openedNonce)
            sessions.registerOpen(ordinal_base + i,
                                  *outputs[i].openedNonce);
    }
    sessions.enforceCap();
    if (dur != nullptr)
        dur->maybeRotate(devices);
}

void
ServerFrontEnd::handleBatch(std::span<Frame> frames,
                            util::ThreadPool &pool)
{
    sessions.expireAll();
    const std::size_t n = frames.size();
    const std::uint64_t base = sessions.reserveOrdinals(n);

    std::vector<FlowOutput> outputs(n);
    std::vector<std::optional<protocol::Message>> decoded(n);
    pool.parallelFor(n, [&](std::size_t i) {
        try {
            decoded[i] = protocol::decodeMessage(frames[i].bytes);
        } catch (const std::exception &e) {
            outputs[i].replies.push_back(protocol::ErrorMsg{
                std::string("decode: ") + e.what()});
        }
    });

    // Group frames by owning shard, preserving frame order within
    // each shard. Frames that need no session state (decode errors,
    // unexpected types) are answered right here.
    std::vector<std::vector<std::size_t>> perShard(
        sessions.shardCount());
    for (std::size_t i = 0; i < n; ++i) {
        if (!decoded[i])
            continue;
        if (std::optional<unsigned> s = route(*decoded[i]))
            perShard[*s].push_back(i);
        else if (!std::holds_alternative<protocol::ErrorMsg>(
                       *decoded[i])) {
            outputs[i].replies.push_back(
                protocol::ErrorMsg{"unexpected message"});
        }
    }

    std::vector<unsigned> active;
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        if (!perShard[s].empty())
            active.push_back(s);
    }

    // Each shard's frames run on exactly one pool index, in input
    // order; all randomness is per-device, so the thread count only
    // changes wall-clock time, never results.
    pool.parallelFor(active.size(), [&](std::size_t k) {
        for (std::size_t i : perShard[active[k]])
            outputs[i] = dispatch(active[k], *decoded[i]);
    });

    mergeOutputs(frames, outputs, base);
}

template <class Flow>
void
ServerFrontEnd::initiate(Flow &flow, const char *name,
                         std::uint64_t device_id,
                         protocol::ReplySink &endpoint)
{
    const std::uint64_t base = sessions.reserveOrdinals(1);
    std::vector<FlowOutput> outputs(1);
    try {
        SessionShard &sh = sessions.shardForDevice(device_id);
        util::MutexLock lock(sh.mutex);
        outputs[0] = flow.start(sh, device_id);
    } catch (const std::exception &e) {
        outputs[0].replies.push_back(protocol::ErrorMsg{
            std::string(name) + ": " + e.what()});
    }
    Frame frame;
    frame.reply = &endpoint;
    mergeOutputs(std::span<Frame>(&frame, 1), outputs, base);
}

void
ServerFrontEnd::startRemap(std::uint64_t device_id,
                           protocol::ReplySink &endpoint)
{
    initiate(remap, "remap", device_id, endpoint);
}

void
ServerFrontEnd::startHeartbeat(std::uint64_t device_id,
                               protocol::ReplySink &endpoint)
{
    initiate(heartbeat, "heartbeat", device_id, endpoint);
}

void
ServerFrontEnd::tickHeartbeats(protocol::ReplySink &endpoint)
{
    // Shard index order, single-threaded: the cadence walk (and the
    // RNG draws it triggers) must not depend on a pool width. Every
    // due session yields one FlowOutput so proactively opened remap
    // nonces rank with deterministic per-output ordinals.
    const std::uint64_t now = sessions.currentStep();
    std::vector<FlowOutput> outputs;
    for (unsigned s = 0; s < sessions.shardCount(); ++s) {
        SessionShard &sh = sessions.shard(s);
        util::MutexLock lock(sh.mutex);
        for (auto &out : heartbeat.tick(sh, now))
            outputs.push_back(std::move(out));
    }
    if (outputs.empty()) {
        // Nothing came due; skip the batch tail (journal sync would
        // be a no-op, but the rotation check is not free).
        return;
    }
    const std::uint64_t base =
        sessions.reserveOrdinals(outputs.size());
    std::vector<Frame> frames(outputs.size());
    for (auto &frame : frames)
        frame.reply = &endpoint;
    mergeOutputs(frames, outputs, base);
}

bool
ServerFrontEnd::stopHeartbeat(std::uint64_t device_id)
{
    SessionShard &sh = sessions.shardForDevice(device_id);
    util::MutexLock lock(sh.mutex);
    return sh.endHeartbeat(device_id);
}

} // namespace authenticache::server
