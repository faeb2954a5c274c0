#include "net/wire.hpp"

#include <algorithm>

#include "protocol/serialize.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"

namespace authenticache::net {

const char *
wireErrorName(WireError e)
{
    switch (e) {
      case WireError::None: return "none";
      case WireError::BadMagic: return "bad-magic";
      case WireError::Oversized: return "oversized";
      case WireError::Undersized: return "undersized";
      case WireError::BadCrc: return "bad-crc";
    }
    return "?";
}

std::size_t
appendWireMessage(std::vector<std::uint8_t> &out, std::uint64_t stream,
                  const protocol::Message &m)
{
    protocol::ByteWriter w(std::move(out));
    const std::size_t at = w.size();
    w.reserve(kWireHeaderBytes + protocol::encodedSizeBound(m) +
              kWireTrailerBytes);
    w.putU32(kWireMagic);
    w.putU64(stream);
    w.putU32(0); // Payload length, patched below.
    protocol::appendMessage(w, m);
    const std::size_t len = w.size() - at - kWireHeaderBytes;
    w.patchU32(at + 12, static_cast<std::uint32_t>(len));
    // The CRC covers everything after the magic: streamId, length,
    // payload -- the same range the decoder checks.
    w.putU32(util::crc32(
        std::span<const std::uint8_t>(w.bytes()).subspan(at + 4)));
    out = w.take();
    return out.size() - at;
}

std::size_t
appendWireFrame(std::vector<std::uint8_t> &out, std::uint64_t stream,
                std::span<const std::uint8_t> payload)
{
    protocol::ByteWriter w(std::move(out));
    const std::size_t at = w.size();
    w.reserve(kWireHeaderBytes + payload.size() + kWireTrailerBytes);
    w.putU32(kWireMagic);
    w.putU64(stream);
    w.putU32(static_cast<std::uint32_t>(payload.size()));
    std::copy(payload.begin(), payload.end(), w.grow(payload.size()));
    w.putU32(util::crc32(
        std::span<const std::uint8_t>(w.bytes()).subspan(at + 4)));
    out = w.take();
    return out.size() - at;
}

std::vector<std::uint8_t>
encodeWireMessage(std::uint64_t stream, const protocol::Message &m)
{
    std::vector<std::uint8_t> out;
    appendWireMessage(out, stream, m);
    return out;
}

std::uint32_t
WireDecoder::peekU32(std::size_t off) const
{
    return util::loadLe32(buf.data() + head + off);
}

std::uint64_t
WireDecoder::peekU64(std::size_t off) const
{
    return util::loadLe64(buf.data() + head + off);
}

void
WireDecoder::feed(std::span<const std::uint8_t> data)
{
    if (failed())
        return;
    // Compact lazily: only when the dead prefix dominates, so feeding
    // one byte at a time (slow-loris) stays O(1) amortized.
    if (head > 4096 && head > buf.size() / 2) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    buf.insert(buf.end(), data.begin(), data.end());
}

std::optional<WireFrame>
WireDecoder::next()
{
    if (failed())
        return std::nullopt;
    if (buffered() < kWireHeaderBytes)
        return std::nullopt; // Torn header: wait for more bytes.

    if (peekU32(0) != kWireMagic) {
        err = WireError::BadMagic;
        return std::nullopt;
    }
    const std::uint64_t stream = peekU64(4);
    const std::size_t len = peekU32(12);
    if (len > kMaxWirePayload) {
        err = WireError::Oversized;
        return std::nullopt;
    }
    if (len < kMinWirePayload) {
        err = WireError::Undersized;
        return std::nullopt;
    }
    const std::size_t total =
        kWireHeaderBytes + len + kWireTrailerBytes;
    if (buffered() < total)
        return std::nullopt; // Torn payload: wait for more bytes.

    // CRC over streamId + length + payload (everything but the magic
    // and the trailer itself).
    std::span<const std::uint8_t> covered(buf.data() + head + 4,
                                          8 + 4 + len);
    if (util::crc32(covered) != peekU32(kWireHeaderBytes + len)) {
        err = WireError::BadCrc;
        return std::nullopt;
    }

    WireFrame frame;
    frame.stream = stream;
    frame.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(
                                           head + kWireHeaderBytes),
                         buf.begin() + static_cast<std::ptrdiff_t>(
                                           head + kWireHeaderBytes +
                                           len));
    head += total;
    if (head == buf.size()) {
        buf.clear();
        head = 0;
    }
    return frame;
}

} // namespace authenticache::net
