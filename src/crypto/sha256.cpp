#include "crypto/sha256.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define AUTH_SIMD_X86 1
#include <immintrin.h>
#else
#define AUTH_SIMD_X86 0
#endif

namespace authenticache::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

#if AUTH_SIMD_X86

/**
 * The compression on the SHA extensions. The state lives in two
 * registers in the instructions' order, ABEF and CDGH. Each group of
 * four rounds adds the round constants to four message words and runs
 * two SHA256RNDS2; message words 16..63 come from the previous
 * sixteen by SHA256MSG1 (two groups ahead) and SHA256MSG2.
 */
__attribute__((target("sha,sse4.1"))) void
compressShaNi(std::array<std::uint32_t, 8> &state,
              const std::uint8_t *block, std::size_t count)
{
    const auto *k = reinterpret_cast<const __m128i *>(kRound.data());
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    const __m128i dcba =
        _mm_shuffle_epi32(_mm_loadu_si128(
                              reinterpret_cast<__m128i *>(&state[0])),
                          0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<__m128i *>(&state[4])), 0x1B);
    __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

    for (; count > 0; --count, block += 64) {
        const __m128i abef0 = abef;
        const __m128i cdgh0 = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i)
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(block + 16 * i)),
                bswap);
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i wk = _mm_add_epi32(w[g % 4], _mm_loadu_si128(k + g));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (g >= 3 && g <= 14) {
                __m128i &next = w[(g + 1) % 4];
                next = _mm_add_epi32(
                    next, _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
                next = _mm_sha256msg2_epu32(next, w[g % 4]);
            }
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (g >= 1 && g <= 12)
                w[(g + 3) % 4] =
                    _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[0]),
                     _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&state[4]),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // AUTH_SIMD_X86

bool
useShaNi(util::SimdLevel level)
{
#if AUTH_SIMD_X86
    return std::min(level, util::detectedSimdLevel()) ==
               util::SimdLevel::Avx2 &&
           util::cpuHasSha();
#else
    (void)level;
    return false;
#endif
}

} // namespace

Sha256::Sha256() : Sha256(util::simdLevel()) {}

Sha256::Sha256(util::SimdLevel level)
    : state{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
            0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer{}, shaNi(useShaNi(level))
{
}

void
Sha256::compress(const std::uint8_t *blocks, std::size_t count)
{
#if AUTH_SIMD_X86
    if (shaNi) {
        compressShaNi(state, blocks, count);
        return;
    }
#endif
    for (; count > 0; --count, blocks += 64)
        processBlock(blocks);
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    assert(!finalized);
    totalLen += data.size();
    std::size_t offset = 0;
    if (bufferLen > 0) {
        std::size_t need = 64 - bufferLen;
        std::size_t take = std::min(need, data.size());
        std::memcpy(buffer.data() + bufferLen, data.data(), take);
        bufferLen += take;
        offset = take;
        if (bufferLen == 64) {
            compress(buffer.data(), 1);
            bufferLen = 0;
        }
    }
    const std::size_t whole = (data.size() - offset) / 64;
    if (whole > 0) {
        compress(data.data() + offset, whole);
        offset += 64 * whole;
    }
    if (offset < data.size()) {
        std::memcpy(buffer.data(), data.data() + offset,
                    data.size() - offset);
        bufferLen = data.size() - offset;
    }
}

void
Sha256::update(const std::string &s)
{
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

Digest256
Sha256::finalize()
{
    assert(!finalized);
    finalized = true;

    // 0x80, zeros, then the 64-bit big-endian bit length, ending on a
    // block boundary: one block, or two when fewer than 9 bytes are
    // left in this one.
    const std::uint64_t bit_len = totalLen * 8;
    std::array<std::uint8_t, 128> tail{};
    std::memcpy(tail.data(), buffer.data(), bufferLen);
    tail[bufferLen] = 0x80;
    const std::size_t blocks = bufferLen < 56 ? 1 : 2;
    std::uint8_t *len_be = tail.data() + 64 * blocks - 8;
    for (int i = 0; i < 8; ++i)
        len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    compress(tail.data(), blocks);

    Digest256 digest;
    for (int i = 0; i < 8; ++i) {
        digest[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
        digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
    return digest;
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
               (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

Digest256
Sha256::hash(std::span<const std::uint8_t> data)
{
    return hash(data, util::simdLevel());
}

Digest256
Sha256::hash(std::span<const std::uint8_t> data, util::SimdLevel level)
{
    Sha256 hasher(level);
    hasher.update(data);
    return hasher.finalize();
}

Digest256
Sha256::hash(const std::string &s)
{
    Sha256 hasher;
    hasher.update(s);
    return hasher.finalize();
}

Digest256
hmacSha256(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> message)
{
    return hmacSha256(key, message, util::simdLevel());
}

Digest256
hmacSha256(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> message, util::SimdLevel level)
{
    std::array<std::uint8_t, 64> k_block{};
    if (key.size() > 64) {
        Digest256 kd = Sha256::hash(key, level);
        std::memcpy(k_block.data(), kd.data(), kd.size());
    } else {
        std::memcpy(k_block.data(), key.data(), key.size());
    }

    std::array<std::uint8_t, 64> ipad;
    std::array<std::uint8_t, 64> opad;
    for (int i = 0; i < 64; ++i) {
        ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
    }

    Sha256 inner(level);
    inner.update(ipad);
    inner.update(message);
    Digest256 inner_digest = inner.finalize();

    Sha256 outer(level);
    outer.update(opad);
    outer.update(inner_digest);
    return outer.finalize();
}

std::string
toHex(const Digest256 &digest)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (auto b : digest) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xF]);
    }
    return s;
}

} // namespace authenticache::crypto
