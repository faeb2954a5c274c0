/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch. Used for key
 * derivation in the adaptive error-remapping protocol (paper Sec 4.5)
 * and for hashing error-map layouts into logical maps (Sec 4.3).
 *
 * The compression function has a portable body and one on the x86
 * SHA extensions (SHA-NI), taken at util::SimdLevel::Avx2 when the
 * CPU has them; both give the same digests.
 */

#ifndef AUTH_CRYPTO_SHA256_HPP
#define AUTH_CRYPTO_SHA256_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/simd.hpp"

namespace authenticache::crypto {

/** A 256-bit digest. */
using Digest256 = std::array<std::uint8_t, 32>;

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    /** Hasher on the dispatch level's compression body. */
    Sha256();

    /**
     * Hasher pinned to a path: the SHA-NI body at SimdLevel::Avx2
     * when the CPU has AVX2 and the SHA extensions, the portable body
     * at every other level.
     */
    explicit Sha256(util::SimdLevel level);

    /** Absorb bytes. */
    void update(std::span<const std::uint8_t> data);

    /** Convenience: absorb a string's bytes. */
    void update(const std::string &s);

    /** Finalize and return the digest; hasher must not be reused. */
    Digest256 finalize();

    /** One-shot hash of a byte span. */
    static Digest256 hash(std::span<const std::uint8_t> data);

    /** One-shot hash of a byte span, pinned to a path. */
    static Digest256 hash(std::span<const std::uint8_t> data,
                          util::SimdLevel level);

    /** One-shot hash of a string. */
    static Digest256 hash(const std::string &s);

  private:
    /** Compress @p count consecutive 64-byte blocks into the state. */
    void compress(const std::uint8_t *blocks, std::size_t count);
    /** The portable compression of one block. */
    void processBlock(const std::uint8_t *block);

    std::array<std::uint32_t, 8> state;
    std::array<std::uint8_t, 64> buffer;
    std::size_t bufferLen = 0;
    std::uint64_t totalLen = 0;
    bool finalized = false;
    bool shaNi = false; // Compress with the SHA extensions.
};

/** HMAC-SHA256 (RFC 2104). */
Digest256 hmacSha256(std::span<const std::uint8_t> key,
                     std::span<const std::uint8_t> message);

/** HMAC-SHA256 with both hashes pinned to a path (see Sha256). */
Digest256 hmacSha256(std::span<const std::uint8_t> key,
                     std::span<const std::uint8_t> message,
                     util::SimdLevel level);

/** Hex encoding of a digest, for tests against published vectors. */
std::string toHex(const Digest256 &digest);

} // namespace authenticache::crypto

#endif // AUTH_CRYPTO_SHA256_HPP
