/**
 * @file
 * Bounds-checked little-endian binary serialization for protocol
 * frames.
 *
 * The fixed-width puts and gets are inline, since a 128-bit challenge
 * alone is 768 u32 fields. Bulk encoders reserve once and write
 * through grow(); bulk decoders bounds-check a whole block with take()
 * and parse it in place.
 */

#ifndef AUTH_PROTOCOL_SERIALIZE_HPP
#define AUTH_PROTOCOL_SERIALIZE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/endian.hpp"

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
    ByteWriter() = default;

    /** Append after the bytes already in @p initial; take() returns it. */
    explicit ByteWriter(std::vector<std::uint8_t> initial)
        : buffer(std::move(initial))
    {
    }

    /**
     * Make room for @p extra more bytes. Capacity still grows
     * geometrically, so reserving before every append into a
     * long-lived buffer stays amortized O(1).
     */
    void
    reserve(std::size_t extra)
    {
        const std::size_t want = buffer.size() + extra;
        if (want > buffer.capacity())
            buffer.reserve(std::max(want, 2 * buffer.capacity()));
    }

    /**
     * Append @p count zero bytes and return a pointer to the first, for
     * a bulk encoder to fill. Valid until the next write.
     */
    std::uint8_t *
    grow(std::size_t count)
    {
        const std::size_t at = buffer.size();
        buffer.resize(at + count);
        return buffer.data() + at;
    }

    void putU8(std::uint8_t v) { buffer.push_back(v); }
    void putU16(std::uint16_t v) { util::storeLe16(grow(2), v); }
    void putU32(std::uint32_t v) { util::storeLe32(grow(4), v); }
    void putU64(std::uint64_t v) { util::storeLe64(grow(8), v); }

    void
    putBytes(std::span<const std::uint8_t> bytes)
    {
        buffer.insert(buffer.end(), bytes.begin(), bytes.end());
    }

    void putString(const std::string &s); // u32 length prefix.

    /** Overwrite the u32 at @p offset (a length written as 0 first). */
    void
    patchU32(std::size_t offset, std::uint32_t v)
    {
        util::storeLe32(buffer.data() + offset, v);
    }

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
    explicit ByteReader(std::span<const std::uint8_t> data_)
        : data(data_)
    {
    }

    /**
     * Consume @p count bytes and return a pointer to the first. Throws
     * DecodeError, consuming nothing, unless @p count bytes remain.
     */
    const std::uint8_t *
    take(std::size_t count)
    {
        if (remaining() < count)
            throwTruncated();
        const std::uint8_t *p = data.data() + offset;
        offset += count;
        return p;
    }

    std::uint8_t getU8() { return *take(1); }
    std::uint16_t getU16() { return util::loadLe16(take(2)); }
    std::uint32_t getU32() { return util::loadLe32(take(4)); }
    std::uint64_t getU64() { return util::loadLe64(take(8)); }
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
    [[noreturn]] static void throwTruncated();

    std::span<const std::uint8_t> data;
    std::size_t offset = 0;
};

} // namespace authenticache::protocol

#endif // AUTH_PROTOCOL_SERIALIZE_HPP
