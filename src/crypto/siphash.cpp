#include "crypto/siphash.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define AUTH_SIMD_X86 1
#include <immintrin.h>
#else
#define AUTH_SIMD_X86 0
#endif

namespace authenticache::crypto {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int b)
{
    return (x << b) | (x >> (64 - b));
}

struct SipState
{
    std::uint64_t v0, v1, v2, v3;

    void
    round()
    {
        v0 += v1;
        v1 = rotl(v1, 13);
        v1 ^= v0;
        v0 = rotl(v0, 32);
        v2 += v3;
        v3 = rotl(v3, 16);
        v3 ^= v2;
        v0 += v3;
        v3 = rotl(v3, 21);
        v3 ^= v0;
        v2 += v1;
        v1 = rotl(v1, 17);
        v1 ^= v2;
        v2 = rotl(v2, 32);
    }
};

inline std::uint64_t
readLe64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v; // Little-endian host assumed (x86/ARM little-endian).
}

#if AUTH_SIMD_X86

/** Four SipHash states, one per 64-bit lane. */
struct SipLanes
{
    __m256i v0, v1, v2, v3;
};

template <int B>
__attribute__((target("avx2"))) inline __m256i
rotl4(__m256i x)
{
    if constexpr (B == 32)
        return _mm256_shuffle_epi32(x, 0xB1);
    else if constexpr (B == 16)
        // Each lane's bytes move up two places.
        return _mm256_shuffle_epi8(
            x, _mm256_setr_epi8(6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10,
                                11, 12, 13, 6, 7, 0, 1, 2, 3, 4, 5, 14,
                                15, 8, 9, 10, 11, 12, 13));
    else
        return _mm256_or_si256(_mm256_slli_epi64(x, B),
                               _mm256_srli_epi64(x, 64 - B));
}

/** SipState::round on four lanes at once. */
__attribute__((target("avx2"))) inline void
sipRound(SipLanes &s)
{
    s.v0 = _mm256_add_epi64(s.v0, s.v1);
    s.v1 = _mm256_xor_si256(rotl4<13>(s.v1), s.v0);
    s.v0 = rotl4<32>(s.v0);
    s.v2 = _mm256_add_epi64(s.v2, s.v3);
    s.v3 = _mm256_xor_si256(rotl4<16>(s.v3), s.v2);
    s.v0 = _mm256_add_epi64(s.v0, s.v3);
    s.v3 = _mm256_xor_si256(rotl4<21>(s.v3), s.v0);
    s.v2 = _mm256_add_epi64(s.v2, s.v1);
    s.v1 = _mm256_xor_si256(rotl4<17>(s.v1), s.v2);
    s.v2 = rotl4<32>(s.v2);
}

/**
 * siphash24Words over a multiple of eight words: two SipLanes per
 * step, each running siphash24(key, word) on its four words (one
 * 8-byte block, then the length block 8 << 56, then finalization).
 */
__attribute__((target("avx2"))) void
siphashWordsAvx2(const SipHashKey &key, std::uint64_t first,
                 std::uint64_t *out, std::size_t count)
{
    const auto k0 = static_cast<long long>(key.k0);
    const auto k1 = static_cast<long long>(key.k1);
    const SipLanes init{
        _mm256_set1_epi64x(k0 ^ 0x736f6d6570736575ll),
        _mm256_set1_epi64x(k1 ^ 0x646f72616e646f6dll),
        _mm256_set1_epi64x(k0 ^ 0x6c7967656e657261ll),
        _mm256_set1_epi64x(k1 ^ 0x7465646279746573ll),
    };
    const __m256i last = _mm256_set1_epi64x(8ll << 56);
    const __m256i ff = _mm256_set1_epi64x(0xFF);
    const __m256i step = _mm256_set1_epi64x(8);
    __m256i ma = _mm256_add_epi64(_mm256_set1_epi64x(
                                      static_cast<long long>(first)),
                                  _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i mb = _mm256_add_epi64(ma, _mm256_set1_epi64x(4));
    for (std::size_t i = 0; i < count; i += 8) {
        SipLanes a = init;
        SipLanes b = init;
        a.v3 = _mm256_xor_si256(a.v3, ma);
        b.v3 = _mm256_xor_si256(b.v3, mb);
        sipRound(a);
        sipRound(b);
        sipRound(a);
        sipRound(b);
        a.v0 = _mm256_xor_si256(a.v0, ma);
        b.v0 = _mm256_xor_si256(b.v0, mb);
        a.v3 = _mm256_xor_si256(a.v3, last);
        b.v3 = _mm256_xor_si256(b.v3, last);
        sipRound(a);
        sipRound(b);
        sipRound(a);
        sipRound(b);
        a.v0 = _mm256_xor_si256(a.v0, last);
        b.v0 = _mm256_xor_si256(b.v0, last);
        a.v2 = _mm256_xor_si256(a.v2, ff);
        b.v2 = _mm256_xor_si256(b.v2, ff);
        for (int r = 0; r < 4; ++r) {
            sipRound(a);
            sipRound(b);
        }
        const __m256i ha = _mm256_xor_si256(_mm256_xor_si256(a.v0, a.v1),
                                            _mm256_xor_si256(a.v2, a.v3));
        const __m256i hb = _mm256_xor_si256(_mm256_xor_si256(b.v0, b.v1),
                                            _mm256_xor_si256(b.v2, b.v3));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), ha);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i + 4), hb);
        ma = _mm256_add_epi64(ma, step);
        mb = _mm256_add_epi64(mb, step);
    }
}

#endif // AUTH_SIMD_X86

} // namespace

std::uint64_t
siphash24(const SipHashKey &key, std::span<const std::uint8_t> data)
{
    SipState s{
        key.k0 ^ 0x736f6d6570736575ull,
        key.k1 ^ 0x646f72616e646f6dull,
        key.k0 ^ 0x6c7967656e657261ull,
        key.k1 ^ 0x7465646279746573ull,
    };

    const std::size_t len = data.size();
    const std::size_t blocks = len / 8;
    for (std::size_t i = 0; i < blocks; ++i) {
        std::uint64_t m = readLe64(data.data() + 8 * i);
        s.v3 ^= m;
        s.round();
        s.round();
        s.v0 ^= m;
    }

    std::uint64_t last = static_cast<std::uint64_t>(len & 0xFF) << 56;
    const std::uint8_t *tail = data.data() + 8 * blocks;
    switch (len & 7) {
      case 7: last |= static_cast<std::uint64_t>(tail[6]) << 48;
              [[fallthrough]];
      case 6: last |= static_cast<std::uint64_t>(tail[5]) << 40;
              [[fallthrough]];
      case 5: last |= static_cast<std::uint64_t>(tail[4]) << 32;
              [[fallthrough]];
      case 4: last |= static_cast<std::uint64_t>(tail[3]) << 24;
              [[fallthrough]];
      case 3: last |= static_cast<std::uint64_t>(tail[2]) << 16;
              [[fallthrough]];
      case 2: last |= static_cast<std::uint64_t>(tail[1]) << 8;
              [[fallthrough]];
      case 1: last |= static_cast<std::uint64_t>(tail[0]);
              break;
      case 0: break;
    }

    s.v3 ^= last;
    s.round();
    s.round();
    s.v0 ^= last;

    s.v2 ^= 0xFF;
    s.round();
    s.round();
    s.round();
    s.round();
    return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

std::uint64_t
siphash24(const SipHashKey &key, std::uint64_t word)
{
    std::array<std::uint8_t, 8> bytes;
    std::memcpy(bytes.data(), &word, 8);
    return siphash24(key, bytes);
}

void
siphash24Words(const SipHashKey &key, std::uint64_t first,
               std::span<std::uint64_t> out, util::SimdLevel level)
{
    std::size_t i = 0;
#if AUTH_SIMD_X86
    if (std::min(level, util::detectedSimdLevel()) ==
        util::SimdLevel::Avx2) {
        i = out.size() & ~std::size_t{7};
        siphashWordsAvx2(key, first, out.data(), i);
    }
#else
    (void)level;
#endif
    for (; i < out.size(); ++i)
        out[i] = siphash24(key, first + i);
}

} // namespace authenticache::crypto
