#include "util/crc32.hpp"

#include <array>
#include <cstddef>

#include "util/endian.hpp"

namespace authenticache::util {

namespace {

/**
 * Slice-by-8 tables. kTables[0] is the classic byte-at-a-time table;
 * kTables[k][i] is the CRC register after byte i is followed by k
 * zero bytes, so one step folds eight input bytes with eight lookups
 * instead of eight dependent table walks.
 */
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr Tables kTables = makeTables();

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data)
{
    const auto &t = kTables;
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; n -= 8, p += 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    return crc32Update(0, data);
}

} // namespace authenticache::util
