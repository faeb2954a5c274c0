#include "net/loopback.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "util/rng.hpp"

namespace authenticache::net {

using protocol::Direction;

void
LoopbackTransport::Client::sendMessage(std::uint64_t stream,
                                       const protocol::Message &m)
{
    sendPayload(stream, protocol::encodeMessage(m));
}

void
LoopbackTransport::Client::sendPayload(std::uint64_t stream,
                                       std::vector<std::uint8_t> payload)
{
    // Whatever the server already wrote crosses the wire first, so
    // send ordinals follow the order the two sides actually wrote in.
    owner->collect(*this);
    owner->transmit(*this, Direction::ClientToServer,
                    WireFrame{stream, std::move(payload)});
}

std::optional<WireFrame>
LoopbackTransport::Client::nextFrame()
{
    owner->collect(*this);
    owner->releaseHeld();
    if (inbox.empty())
        return std::nullopt;
    WireFrame frame = std::move(inbox.front());
    inbox.pop_front();
    return frame;
}

std::optional<protocol::Message>
LoopbackTransport::Client::receive()
{
    auto frame = nextFrame();
    if (!frame)
        return std::nullopt;
    return protocol::decodeMessage(frame->payload);
}

std::vector<std::pair<std::uint64_t, protocol::Message>>
LoopbackTransport::Client::readMessages()
{
    std::vector<std::pair<std::uint64_t, protocol::Message>> out;
    while (auto frame = nextFrame())
        out.emplace_back(frame->stream,
                         protocol::decodeMessage(frame->payload));
    return out;
}

std::vector<std::uint8_t>
LoopbackTransport::Client::takeRawBytes()
{
    std::vector<std::uint8_t> out;
    while (auto frame = nextFrame())
        appendWireFrame(out, frame->stream, frame->payload);
    return out;
}

protocol::ReplySink &
LoopbackTransport::Client::sink(std::uint64_t stream)
{
    if (conn == nullptr)
        throw std::logic_error("loopback: sink on a reaped connection");
    auto [it, inserted] =
        conn->streams.try_emplace(stream, owner->core, *conn, stream);
    if (!inserted)
        it->second.revive();
    return it->second;
}

LoopbackTransport::LoopbackTransport(server::ServerFrontEnd &front,
                                     const TransportConfig &config)
    : core(front, config)
{
}

LoopbackTransport::Client *
LoopbackTransport::connect()
{
    if (!accepting)
        return nullptr;
    auto client = std::make_unique<Client>();
    client->owner = this;
    client->conn = &core.open();
    client->connId = client->conn->id;
    Client &ref = *client;
    clients.emplace(ref.connId, std::move(client));
    return &ref;
}

void
LoopbackTransport::feed(Client &client)
{
    TransportCore::Conn &conn = *client.conn;
    const std::size_t chunk = core.config().readChunkBytes;
    while (client.outHead < client.outbox.size()) {
        if (!core.wantsRead(conn)) {
            // Bytes stall in the outbox -- the loopback analogue of a
            // full TCP receive window. (Stalls with bytes buffered in
            // the decoder were already counted by ingest.)
            if (!conn.closed && conn.decoder.buffered() == 0)
                core.noteBackpressureStall();
            return;
        }
        const std::size_t n = std::min(
            chunk, client.outbox.size() - client.outHead);
        core.ingest(conn, std::span<const std::uint8_t>(
                              client.outbox.data() + client.outHead,
                              n));
        client.outHead += n;
    }
    client.outbox.clear();
    client.outHead = 0;
}

void
LoopbackTransport::collect(Client &client)
{
    if (client.conn == nullptr)
        return;
    TransportCore::Conn &conn = *client.conn;
    if (conn.pendingOut() == 0)
        return;
    client.down.feed(std::span<const std::uint8_t>(
        conn.out.data() + conn.outHead, conn.pendingOut()));
    conn.out.clear();
    conn.outHead = 0;
    while (auto frame = client.down.next())
        transmit(client, Direction::ServerToClient, std::move(*frame));
}

void
LoopbackTransport::transmit(Client &client, Direction d,
                            WireFrame frame)
{
    const std::uint64_t ordinal = nFrames++;
    if (tap)
        tap->record(d, frame.payload);

    const protocol::FaultSpec *spec = plan.at(ordinal);
    switch (spec ? spec->type : protocol::FaultType::None) {
      case protocol::FaultType::Drop:
        ++faults.drops;
        return;
      case protocol::FaultType::Duplicate:
        ++faults.duplicates;
        // Both copies cross the wire; the eavesdropper sees both.
        if (tap)
            tap->record(d, frame.payload);
        deliver(client, d, frame);
        break;
      case protocol::FaultType::Reorder:
        ++faults.reorders;
        deliver(client, d, std::move(frame), /*front=*/true);
        return;
      case protocol::FaultType::Delay:
        if (clock == nullptr || spec->delaySteps == 0)
            break;
        ++faults.delays;
        held.push_back(
            {clock->now() + spec->delaySteps, d, &client, std::move(frame)});
        return;
      case protocol::FaultType::Corrupt: {
        ++faults.corruptions;
        if (frame.payload.empty())
            break;
        // Seed by (plan seed, ordinal): the damaged byte and mask
        // depend only on the schedule, never on call order elsewhere.
        util::Rng rng = util::Rng::forStream(plan.seed(), ordinal);
        const std::size_t pos = rng.nextBelow(frame.payload.size());
        frame.payload[pos] ^=
            static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        break;
      }
      case protocol::FaultType::None:
        break;
    }
    deliver(client, d, std::move(frame));
}

void
LoopbackTransport::deliver(Client &client, Direction d, WireFrame frame,
                           bool front)
{
    if (d == Direction::ServerToClient) {
        if (front)
            client.inbox.push_front(std::move(frame));
        else
            client.inbox.push_back(std::move(frame));
        return;
    }
    if (!front) {
        appendWireFrame(client.outbox, frame.stream, frame.payload);
        return;
    }
    // Ahead of every byte the server has not yet accepted.
    std::vector<std::uint8_t> bytes;
    appendWireFrame(bytes, frame.stream, frame.payload);
    client.outbox.insert(client.outbox.begin() +
                             static_cast<std::ptrdiff_t>(client.outHead),
                         bytes.begin(), bytes.end());
}

void
LoopbackTransport::releaseHeld()
{
    if (held.empty())
        return;
    const std::uint64_t step = releaseStep();
    // Release in step order, frames due at the same step in send order
    // (the sort is stable and frames are held in send order), so
    // delivery is deterministic however far the clock jumped.
    std::stable_sort(held.begin(), held.end(),
                     [](const HeldFrame &x, const HeldFrame &y) {
                         return x.releaseStep < y.releaseStep;
                     });
    std::size_t released = 0;
    for (auto &h : held) {
        if (h.releaseStep > step)
            break;
        deliver(*h.client, h.direction, std::move(h.frame));
        ++released;
    }
    held.erase(held.begin(),
               held.begin() + static_cast<std::ptrdiff_t>(released));
}

std::size_t
LoopbackTransport::pump(util::ThreadPool &pool)
{
    releaseHeld();
    for (auto &[id, client] : clients) {
        if (client->conn == nullptr)
            continue; // Reaped by drain().
        feed(*client);
    }

    const std::size_t serviced = core.runBatch(pool);

    // Deliver reply frames; then move bytes that backpressure stalled,
    // now that the batch has drained their queues.
    for (auto &[id, client] : clients) {
        if (client->conn == nullptr)
            continue;
        collect(*client);
        if (!client->conn->closed)
            feed(*client);
    }
    return serviced;
}

void
LoopbackTransport::pumpUntilIdle(util::ThreadPool &pool)
{
    // Each idle pump still moves stalled bytes, so loop until nothing
    // is queued anywhere and no held frame has come due.
    while (!wireIdle())
        pump(pool);
}

void
LoopbackTransport::drain(util::ThreadPool &pool)
{
    accepting = false;
    pumpUntilIdle(pool);
    for (auto &[id, client] : clients) {
        if (client->conn != nullptr && !client->conn->closed)
            core.close(*client->conn);
        client->conn = nullptr; // reap() frees every closed Conn.
    }
    core.reap();
}

bool
LoopbackTransport::idle() const
{
    return held.empty() && wireIdle();
}

bool
LoopbackTransport::wireIdle() const
{
    if (!core.idle())
        return false;
    const std::uint64_t step = releaseStep();
    for (const auto &h : held)
        if (h.releaseStep <= step)
            return false;
    for (const auto &[id, client] : clients) {
        if (client->conn == nullptr || client->conn->closed)
            continue;
        const TransportCore::Conn &conn = *client->conn;
        if (client->unsentBytes() > 0 && core.wantsRead(conn))
            return false;
        if (conn.pendingOut() > 0)
            return false;
    }
    return true;
}

} // namespace authenticache::net
