/**
 * @file
 * Bounds-checked little-endian binary serialization for protocol
 * frames.
 */

#ifndef AUTH_PROTOCOL_SERIALIZE_HPP
#define AUTH_PROTOCOL_SERIALIZE_HPP

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace authenticache::protocol {

/** Thrown on malformed input (truncation, bad tags, CRC mismatch). */
class DecodeError : public std::runtime_error
{
  public:
    explicit DecodeError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Append-only byte buffer with little-endian encoders. */
class ByteWriter
{
  public:
    void putU8(std::uint8_t v);
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putBytes(std::span<const std::uint8_t> bytes);
    void putString(const std::string &s); // u32 length prefix.

    const std::vector<std::uint8_t> &bytes() const { return buffer; }
    std::vector<std::uint8_t> take() { return std::move(buffer); }
    std::size_t size() const { return buffer.size(); }

  private:
    std::vector<std::uint8_t> buffer;
};

/** Cursor over a byte span; every read is bounds checked. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> data);

    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::vector<std::uint8_t> getBytes(std::size_t count);
    std::string getString();

    std::size_t remaining() const { return data.size() - offset; }
    bool exhausted() const { return remaining() == 0; }

    /** The @p count bytes read last (at most all read so far). */
    std::span<const std::uint8_t> lastRead(std::size_t count) const
    {
        return data.subspan(offset - count, count);
    }

    /** Throw unless every byte has been consumed. */
    void expectEnd() const;

  private:
    void need(std::size_t count) const;

    std::span<const std::uint8_t> data;
    std::size_t offset = 0;
};

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_SERIALIZE_HPP
