#include "net/transport.hpp"

#include <sstream>

namespace authenticache::net {

namespace {

/** Canonical shed-reject reason; clients match it via
 *  isOverloadedReject, tests via the exact bytes. */
constexpr const char *kOverloadedReason =
    "overloaded: shed by transport admission control";

} // namespace

std::string
TransportCounters::serialize() const
{
    std::ostringstream os;
    os << "opened=" << connectionsOpened
       << " closed=" << connectionsClosed << " bytesIn=" << bytesIn
       << " bytesOut=" << bytesOut << " framesIn=" << framesIn
       << " framesOut=" << framesOut << " accepted=" << accepted
       << " shed=" << shed << " stalls=" << backpressureStalls
       << " codecErrors=" << codecErrors
       << " droppedOnClose=" << droppedOnClose
       << " slowReaderDrops=" << slowReaderDrops
       << " batches=" << batches
       << " sinksRetired=" << sinksRetired;
    return os.str();
}

protocol::ErrorMsg
overloadedReject()
{
    return protocol::ErrorMsg{kOverloadedReason};
}

bool
isOverloadedReject(const protocol::Message &m)
{
    const auto *e = std::get_if<protocol::ErrorMsg>(&m);
    return e != nullptr && e->reason == kOverloadedReason;
}

bool
isContinuationPayload(std::span<const std::uint8_t> payload)
{
    const auto type = protocol::peekMessageType(payload);
    return type == protocol::MessageType::ResponseMsg ||
           type == protocol::MessageType::RemapAck ||
           type == protocol::MessageType::RemapCommit ||
           type == protocol::MessageType::HeartbeatProof;
}

void
TransportCore::StreamSink::send(const protocol::Message &m)
{
    // Terminal messages end the exchange; the sink becomes
    // garbage-collectable whether or not delivery succeeds.
    // Heartbeat and TrustUpdate are deliberately *not* terminal: a
    // heartbeat session streams rounds over one sink indefinitely.
    // Revoke ends the session, so it retires the sink like a decision.
    if (std::holds_alternative<protocol::AuthDecision>(m) ||
        std::holds_alternative<protocol::RemapCommit>(m) ||
        std::holds_alternative<protocol::Revoke>(m) ||
        std::holds_alternative<protocol::ErrorMsg>(m))
        isRetired = true;
    if (conn.closed)
        return; // The peer is gone; nowhere to deliver.
    const std::size_t bytes = appendWireMessage(conn.out, stream, m);
    ++core.tally.framesOut;
    core.tally.bytesOut += bytes;
    if (core.cfg.maxWriteBuffered != 0 &&
        conn.pendingOut() > core.cfg.maxWriteBuffered) {
        ++core.tally.slowReaderDrops;
        core.close(conn);
    }
}

TransportCore::TransportCore(server::ServerFrontEnd &front_,
                             const TransportConfig &config)
    : front(front_), cfg(config)
{
}

TransportCore::Conn &
TransportCore::open(int fd)
{
    auto conn = std::make_unique<Conn>();
    conn->id = nextId++;
    conn->fd = fd;
    Conn &ref = *conn;
    conns.emplace(ref.id, std::move(conn));
    ++tally.connectionsOpened;
    return ref;
}

void
TransportCore::close(Conn &conn)
{
    if (conn.closed)
        return;
    conn.closed = true;
    ++tally.connectionsClosed;
    tally.droppedOnClose += conn.queue.size();
    queuedTotal -= conn.queue.size();
    conn.queue.clear();
    conn.out.clear();
    conn.outHead = 0;
}

void
TransportCore::reap()
{
    for (auto it = conns.begin(); it != conns.end();) {
        if (it->second->closed)
            it = conns.erase(it);
        else
            ++it;
    }
}

void
TransportCore::admit(Conn &conn, WireFrame frame)
{
    // New work competes for the budget minus the continuation
    // reserve; continuations may fill the budget completely.
    std::size_t cap = cfg.globalInFlight;
    if (cfg.continuationReserve > 0 &&
        !isContinuationPayload(frame.payload))
        cap -= std::min(cfg.continuationReserve, cap);
    if (queuedTotal >= cap) {
        // Budget exhausted: shed with an explicit reject on the
        // frame's own stream so the device learns immediately instead
        // of timing out. The reject bypasses the request queue -- the
        // whole point is to spend no queue capacity on it.
        ++tally.shed;
        auto [it, inserted] = conn.streams.try_emplace(
            frame.stream, *this, conn, frame.stream);
        (void)inserted;
        it->second.send(protocol::Message{overloadedReject()});
        // admit() never runs inside handleBatch, so no batch frame
        // holds this sink's address: erase it right away.
        if (it->second.retired()) {
            conn.streams.erase(it);
            ++tally.sinksRetired;
        }
        return;
    }
    ++tally.accepted;
    ++queuedTotal;
    conn.queue.push_back(std::move(frame));
}

void
TransportCore::drainDecoder(Conn &conn)
{
    while (!conn.closed && conn.queue.size() < cfg.perConnectionQueue) {
        std::optional<WireFrame> frame = conn.decoder.next();
        if (!frame)
            break;
        ++tally.framesIn;
        admit(conn, std::move(*frame));
    }
    if (conn.decoder.failed() && !conn.closed) {
        ++tally.codecErrors;
        close(conn);
    }
}

void
TransportCore::ingest(Conn &conn, std::span<const std::uint8_t> data)
{
    if (conn.closed)
        return;
    tally.bytesIn += data.size();
    conn.decoder.feed(data);
    drainDecoder(conn);
    // The queue filled with input still buffered: the connection is
    // now stalled on backpressure until a batch drains it.
    if (!conn.closed && !wantsRead(conn) &&
        conn.decoder.buffered() > 0)
        ++tally.backpressureStalls;
}

bool
TransportCore::wantsRead(const Conn &conn) const
{
    return !conn.closed && !conn.decoder.failed() &&
           conn.queue.size() < cfg.perConnectionQueue;
}

std::size_t
TransportCore::runBatch(util::ThreadPool &pool)
{
    if (queuedTotal == 0)
        return 0;

    // Round-robin lift: one frame per connection per lap, ascending
    // id, until the batch budget or the queues run out. FIFO within a
    // connection, no connection starves another.
    std::vector<server::Frame> frames;
    frames.reserve(std::min(queuedTotal, cfg.maxBatchFrames));
    bool progress = true;
    while (progress && frames.size() < cfg.maxBatchFrames) {
        progress = false;
        for (auto &[id, conn] : conns) {
            if (conn->queue.empty())
                continue;
            if (frames.size() >= cfg.maxBatchFrames)
                break;
            WireFrame wf = std::move(conn->queue.front());
            conn->queue.pop_front();
            --queuedTotal;
            auto [it, inserted] = conn->streams.try_emplace(
                wf.stream, *this, *conn, wf.stream);
            if (!inserted)
                it->second.revive();
            frames.push_back(server::Frame{std::move(wf.payload),
                                           &it->second});
            progress = true;
        }
    }
    if (frames.empty())
        return 0;

    ++tally.batches;
    inBatch = true;
    front.handleBatch(frames, pool);
    inBatch = false;

    // Retire sinks whose exchange completed this batch. Safe only
    // here: the batch's Frame::sink pointers are dead now, and the
    // next lift re-creates any stream that speaks again.
    for (auto &[id, conn] : conns) {
        for (auto it = conn->streams.begin();
             it != conn->streams.end();) {
            if (it->second.retired()) {
                it = conn->streams.erase(it);
                ++tally.sinksRetired;
            } else {
                ++it;
            }
        }
    }

    // Queue space opened up: connections whose decoders were stalled
    // on a full queue can surface their buffered frames now.
    for (auto &[id, conn] : conns)
        if (!conn->closed && conn->decoder.buffered() > 0)
            drainDecoder(*conn);

    return frames.size();
}

void
TransportCore::collectStats(util::StatsRegistry &registry,
                            const std::string &component) const
{
    const std::string comp = component + ".transport";
    registry.set(comp, "connections_opened", tally.connectionsOpened);
    registry.set(comp, "connections_closed", tally.connectionsClosed);
    registry.set(comp, "bytes_in", tally.bytesIn);
    registry.set(comp, "bytes_out", tally.bytesOut);
    registry.set(comp, "frames_in", tally.framesIn);
    registry.set(comp, "frames_out", tally.framesOut);
    registry.set(comp, "accepted", tally.accepted);
    registry.set(comp, "shed", tally.shed);
    registry.set(comp, "backpressure_stalls",
                 tally.backpressureStalls);
    registry.set(comp, "codec_errors", tally.codecErrors);
    registry.set(comp, "dropped_on_close", tally.droppedOnClose);
    registry.set(comp, "slow_reader_drops", tally.slowReaderDrops);
    registry.set(comp, "batches", tally.batches);
    registry.set(comp, "sinks_retired", tally.sinksRetired);
    registry.set(comp, "queued", static_cast<std::uint64_t>(
                                     queuedTotal));
    registry.set(comp, "connections_live",
                 static_cast<std::uint64_t>(conns.size()));
}

} // namespace authenticache::net
