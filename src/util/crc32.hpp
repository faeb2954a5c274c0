/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial) used as a frame check sequence on
 * protocol messages, wire frames, journal records and snapshots.
 *
 * Computed slice-by-8 (eight 256-entry tables, 8 KiB in all, eight
 * bytes per step), byte at a time on the tail: the same values as the
 * classic one-table loop, about five times faster.
 */

#ifndef AUTH_UTIL_CRC32_HPP
#define AUTH_UTIL_CRC32_HPP

#include <cstdint>
#include <span>

namespace authenticache::util {

/** CRC-32/IEEE over a byte span (init 0xFFFFFFFF, final xor). */
std::uint32_t crc32(std::span<const std::uint8_t> data);

/** Incremental variant: feed a prior CRC to continue a computation. */
std::uint32_t crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> data);

} // namespace authenticache::util

#endif // AUTH_UTIL_CRC32_HPP
