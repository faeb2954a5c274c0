#include "util/crc32.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/endian.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define AUTH_SIMD_X86 1
#include <immintrin.h>
#else
#define AUTH_SIMD_X86 0
#endif

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

/** The table body on a register that is already inverted. */
std::uint32_t
tableUpdate(std::uint32_t c, const std::uint8_t *p, std::size_t n)
{
    const auto &t = kTables;
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
    return c;
}

#if AUTH_SIMD_X86

inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** x.lo * k.lo ^ x.hi * k.hi, carry-less: x advanced by k's distance. */
__attribute__((target("pclmul"))) inline __m128i
fold(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/**
 * Folds @p n bytes (a multiple of 16, at least 64) into the inverted
 * register @p c by carry-less multiplication, in the bit-reflected
 * domain of the 0xEDB88320 polynomial P. Four 128-bit accumulators
 * each advance 64 bytes per step, then fold into one, which takes the
 * remaining 16-byte blocks; a fold to 64 bits and a Barrett reduction
 * leave the 32-bit register. The fold constants are powers x^k mod P
 * for the distance folded (64, 16 and 8 bytes), bit-reflected; the
 * Barrett pair is P itself and floor(x^64 / P).
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
clmulFold(std::uint32_t c, const std::uint8_t *p, std::size_t n)
{
    const __m128i k64 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k16 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k8 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x0 =
        _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load128(p + 16);
    __m128i x2 = load128(p + 32);
    __m128i x3 = load128(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = _mm_xor_si128(fold(x0, k64), load128(p));
        x1 = _mm_xor_si128(fold(x1, k64), load128(p + 16));
        x2 = _mm_xor_si128(fold(x2, k64), load128(p + 32));
        x3 = _mm_xor_si128(fold(x3, k64), load128(p + 48));
    }
    __m128i x = _mm_xor_si128(fold(x0, k16), x1);
    x = _mm_xor_si128(fold(x, k16), x2);
    x = _mm_xor_si128(fold(x, k16), x3);
    for (; n >= 16; p += 16, n -= 16)
        x = _mm_xor_si128(fold(x, k16), load128(p));

    // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k16, 0x10));
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k8,
                                           0x00));
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

#endif // AUTH_SIMD_X86

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data,
            SimdLevel level)
{
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    const std::uint8_t *p = data.data();
    std::size_t n = data.size();
#if AUTH_SIMD_X86
    if (n >= 64 &&
        std::min(level, detectedSimdLevel()) == SimdLevel::Avx2 &&
        cpuHasPclmul()) {
        const std::size_t folded = n & ~std::size_t{15};
        c = clmulFold(c, p, folded);
        p += folded;
        n -= folded;
    }
#else
    (void)level;
#endif
    return tableUpdate(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data)
{
    return crc32Update(crc, data, simdLevel());
}

std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    return crc32Update(0, data);
}

} // namespace authenticache::util
