#include "crypto/sha256.hpp"

#include <cassert>
#include <cstring>

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

} // namespace

Sha256::Sha256()
    : state{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
            0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer{}
{
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
            processBlock(buffer.data());
            bufferLen = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        processBlock(data.data() + offset);
        offset += 64;
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

    std::uint64_t bit_len = totalLen * 8;
    std::uint8_t pad = 0x80;
    update({&pad, 1});
    std::uint8_t zero = 0x00;
    while (bufferLen != 56)
        update({&zero, 1});
    std::array<std::uint8_t, 8> len_be;
    for (int i = 0; i < 8; ++i)
        len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    update(len_be);
    finalized = true;

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
    Sha256 hasher;
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
    std::array<std::uint8_t, 64> k_block{};
    if (key.size() > 64) {
        Digest256 kd = Sha256::hash(key);
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

    Sha256 inner;
    inner.update(ipad);
    inner.update(message);
    Digest256 inner_digest = inner.finalize();

    Sha256 outer;
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
