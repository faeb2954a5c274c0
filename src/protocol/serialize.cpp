#include "protocol/serialize.hpp"

namespace authenticache::protocol {

void
ByteWriter::putString(const std::string &s)
{
    putU32(static_cast<std::uint32_t>(s.size()));
    putBytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

void
ByteReader::throwTruncated()
{
    throw DecodeError("truncated message");
}

std::vector<std::uint8_t>
ByteReader::getBytes(std::size_t count)
{
    const std::uint8_t *p = take(count);
    return std::vector<std::uint8_t>(p, p + count);
}

std::string
ByteReader::getString()
{
    const std::uint32_t len = getU32();
    const std::uint8_t *p = take(len);
    return std::string(p, p + len);
}

void
ByteReader::expectEnd() const
{
    if (!exhausted())
        throw DecodeError("trailing bytes after message");
}

} // namespace authenticache::protocol
