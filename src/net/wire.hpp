/**
 * @file
 * Wire codec for the socket transport: length-prefixed, CRC-checked
 * frames that multiplex many logical device sessions ("streams") over
 * one byte-stream connection.
 *
 * Layout of one wire frame:
 *
 *     [u32 magic 'ACW1'][u64 streamId][u32 payloadLen]
 *     [payload bytes][u32 crc32]
 *
 * all little-endian. The payload is exactly one encoded
 * protocol::Message frame (protocol::encodeMessage output, which
 * carries its own inner length + CRC); the outer CRC covers
 * streamId + payloadLen + payload, so header corruption is caught
 * before a length field is trusted for anything beyond the bounded
 * sanity checks below.
 *
 * The decoder is a push-style stream parser built for hostile input:
 * it never throws, never reads past the bytes it was fed, tolerates
 * arbitrary read fragmentation (a frame split at every byte is the
 * conformance suite's bread and butter), and turns every malformed
 * input -- bad preamble, oversized or undersized length, CRC
 * mismatch -- into a sticky, named error state. A transport treats a
 * decoder error as connection-fatal: on TCP, garbage means a broken
 * or malicious peer, and resynchronizing inside a corrupt stream is
 * not worth the attack surface.
 */

#ifndef AUTH_NET_WIRE_HPP
#define AUTH_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "protocol/messages.hpp"

namespace authenticache::net {

/** Frame preamble ("ACW1" when read as little-endian bytes). */
constexpr std::uint32_t kWireMagic = 0x31574341u;

/** Bytes before the payload: magic + streamId + payloadLen. */
constexpr std::size_t kWireHeaderBytes = 4 + 8 + 4;

/** Bytes after the payload: the outer CRC. */
constexpr std::size_t kWireTrailerBytes = 4;

/**
 * Payload size bounds. The minimum is the smallest encoded
 * protocol::Message (inner length + type byte + inner CRC); anything
 * shorter cannot decode and is rejected at the wire layer. The
 * maximum bounds per-connection buffering against a peer advertising
 * absurd lengths (the largest honest frame -- a dense remap request
 * -- stays far below it).
 */
constexpr std::size_t kMinWirePayload = 9;
constexpr std::size_t kMaxWirePayload = 1u << 20;

/** One decoded wire frame: the stream tag plus the inner payload. */
struct WireFrame
{
    std::uint64_t stream = 0;
    std::vector<std::uint8_t> payload;
};

/** Why a decoder refused its input (sticky; connection-fatal). */
enum class WireError : std::uint8_t
{
    None,
    BadMagic,   ///< Preamble mismatch (garbage or desynced stream).
    Oversized,  ///< payloadLen > kMaxWirePayload.
    Undersized, ///< payloadLen < kMinWirePayload.
    BadCrc,     ///< Outer CRC mismatch.
};

const char *wireErrorName(WireError e);

/**
 * Append the wire frame of @p m on @p stream to @p out, in one pass:
 * the inner message is written in place as the payload (no temporary
 * vectors), both length fields are patched afterwards, and each CRC
 * runs once over the bytes just written. Returns the bytes appended.
 * The payload is byte-for-byte protocol::encodeMessage(m).
 */
std::size_t appendWireMessage(std::vector<std::uint8_t> &out,
                              std::uint64_t stream,
                              const protocol::Message &m);

/**
 * Append the wire frame of an already-encoded payload on @p stream
 * to @p out. Framing the bytes of protocol::encodeMessage(m) gives
 * exactly what appendWireMessage(out, stream, m) writes; any other
 * payload is framed as given, so damaged payloads travel with a valid
 * outer CRC. Returns the bytes appended.
 */
std::size_t appendWireFrame(std::vector<std::uint8_t> &out,
                            std::uint64_t stream,
                            std::span<const std::uint8_t> payload);

/** appendWireMessage into a fresh vector. */
std::vector<std::uint8_t> encodeWireMessage(std::uint64_t stream,
                                            const protocol::Message &m);

/**
 * Push-style streaming decoder. Feed bytes as they arrive (any
 * fragmentation); pull complete frames with next(). After the first
 * malformed frame the decoder latches error() and next() returns
 * nothing forever -- the owning connection must be torn down.
 */
class WireDecoder
{
  public:
    /** Append raw bytes from the connection. No-op once failed. */
    void feed(std::span<const std::uint8_t> data);

    /**
     * The next complete frame, if one is buffered. std::nullopt means
     * "need more bytes" -- or a latched error; check failed().
     */
    std::optional<WireFrame> next();

    bool failed() const { return err != WireError::None; }
    WireError error() const { return err; }

    /** Bytes buffered but not yet consumed (partial frame). */
    std::size_t buffered() const { return buf.size() - head; }

  private:
    std::uint32_t peekU32(std::size_t off) const;
    std::uint64_t peekU64(std::size_t off) const;

    std::vector<std::uint8_t> buf;
    std::size_t head = 0;
    WireError err = WireError::None;
};

} // namespace authenticache::net

#endif // AUTH_NET_WIRE_HPP
