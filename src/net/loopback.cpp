#include "net/loopback.hpp"

#include <algorithm>

namespace authenticache::net {

void
LoopbackTransport::Client::write(std::span<const std::uint8_t> data)
{
    if (writeClosed || aborted)
        return;
    outbox.insert(outbox.end(), data.begin(), data.end());
}

void
LoopbackTransport::Client::sendMessage(std::uint64_t stream,
                                       const protocol::Message &m)
{
    if (writeClosed || aborted)
        return;
    appendWireMessage(outbox, stream, m);
}

void
LoopbackTransport::Client::abort()
{
    aborted = true;
    writeClosed = true;
    outbox.clear();
    outHead = 0;
}

std::vector<std::pair<std::uint64_t, protocol::Message>>
LoopbackTransport::Client::readMessages()
{
    down.feed(inbox);
    inbox.clear();
    std::vector<std::pair<std::uint64_t, protocol::Message>> out;
    while (auto frame = down.next())
        out.emplace_back(frame->stream,
                         protocol::decodeMessage(frame->payload));
    return out;
}

std::vector<std::uint8_t>
LoopbackTransport::Client::takeRawBytes()
{
    return std::exchange(inbox, {});
}

LoopbackTransport::LoopbackTransport(server::ServerFrontEnd &front,
                                     const TransportConfig &config)
    : core(front, config)
{
}

LoopbackTransport::~LoopbackTransport() = default;

LoopbackTransport::Client *
LoopbackTransport::connect()
{
    if (!accepting)
        return nullptr;
    auto client = std::make_unique<Client>();
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
    // Orderly shutdown: EOF is delivered only after every byte before
    // it has been consumed.
    if (client.writeClosed && !conn.closed && conn.queue.empty() &&
        conn.decoder.buffered() == 0 && conn.pendingOut() == 0)
        core.close(conn);
}

std::size_t
LoopbackTransport::pump(util::ThreadPool &pool)
{
    for (auto &[id, client] : clients) {
        if (client->conn == nullptr)
            continue; // Reaped by drain().
        if (client->aborted && !client->conn->closed)
            core.close(*client->conn); // RST: drop everything now.
        else
            feed(*client);
    }

    const std::size_t serviced = core.runBatch(pool);

    // Deliver reply bytes; then re-check half-closed connections,
    // whose EOF may have become deliverable once the batch drained
    // their queue and replies flushed.
    for (auto &[id, client] : clients) {
        if (client->conn == nullptr)
            continue;
        TransportCore::Conn &conn = *client->conn;
        if (conn.pendingOut() > 0 && !client->aborted) {
            client->inbox.insert(client->inbox.end(),
                                 conn.out.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         conn.outHead),
                                 conn.out.end());
            conn.out.clear();
            conn.outHead = 0;
        }
        if (!conn.closed)
            feed(*client);
    }
    return serviced;
}

void
LoopbackTransport::pumpUntilIdle(util::ThreadPool &pool)
{
    // Each idle pump still moves stalled bytes, so loop until nothing
    // is queued anywhere, then once more to flush EOFs.
    while (!idle())
        pump(pool);
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
    if (!core.idle())
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
