/**
 * @file
 * Little-endian stores and loads at a raw byte pointer: the byte order
 * of every on-wire and on-disk integer (protocol frames, wire frames,
 * journal records, snapshots) and of the CRC-32 input words. Written
 * byte by byte, so they are correct on any host; compilers turn each
 * into one move on little-endian targets.
 */

#ifndef AUTH_UTIL_ENDIAN_HPP
#define AUTH_UTIL_ENDIAN_HPP

#include <cstdint>

namespace authenticache::util {

inline void
storeLe16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void
storeLe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    storeLe32(p, static_cast<std::uint32_t>(v));
    storeLe32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint16_t
loadLe16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(loadLe32(p)) |
           static_cast<std::uint64_t>(loadLe32(p + 4)) << 32;
}

} // namespace authenticache::util

#endif // AUTH_UTIL_ENDIAN_HPP
