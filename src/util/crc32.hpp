/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial) used as a frame check sequence on
 * protocol messages, wire frames, journal records and snapshots.
 *
 * Computed slice-by-8 (eight 256-entry tables, 8 KiB in all, eight
 * bytes per step), byte at a time on the tail: the same values as the
 * classic one-table loop, about five times faster. At SimdLevel::Avx2
 * on a CPU with PCLMULQDQ, a span of at least 64 bytes is first
 * folded 16 bytes at a time by carry-less multiplication (Gopal et
 * al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction", Intel 2009), four blocks in flight, and the table
 * finishes the last 0-15 bytes: the same values again, about ten
 * times faster than the table on a challenge frame.
 */

#ifndef AUTH_UTIL_CRC32_HPP
#define AUTH_UTIL_CRC32_HPP

#include <cstdint>
#include <span>

#include "util/simd.hpp"

namespace authenticache::util {

/** CRC-32/IEEE over a byte span (init 0xFFFFFFFF, final xor). */
std::uint32_t crc32(std::span<const std::uint8_t> data);

/** Incremental variant: feed a prior CRC to continue a computation. */
std::uint32_t crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> data);

/**
 * crc32Update pinned to a path: the carry-less fold at
 * SimdLevel::Avx2 when the CPU has AVX2 and PCLMULQDQ, the table at
 * every other level. Every path gives the same value.
 */
std::uint32_t crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> data,
                          SimdLevel level);

} // namespace authenticache::util

#endif // AUTH_UTIL_CRC32_HPP
