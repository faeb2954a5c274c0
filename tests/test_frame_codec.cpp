/**
 * @file
 * Frame-codec byte stability and hostile-count checks.
 *
 *  - CRC-32 against a bitwise reference (the polynomial applied one
 *    bit at a time, no tables) at every length 0..4200 and every start
 *    alignment 0..7, plus crc32Update chained across every 8-byte
 *    boundary of a 4 KiB buffer. Crc32Paths repeats both on each
 *    path pinned: the table, and the carry-less fold (skipped on a
 *    CPU without AVX2 and PCLMULQDQ).
 *  - Wire-format goldens: the SHA-256 of encodeWireMessage for one
 *    frame of each of the 12 message types. The digests were recorded
 *    from the byte-at-a-time codec; any change to the encoder, the
 *    CRC or a field layout that alters one output byte fails here.
 *  - appendWireMessage extends a buffer in place with the same bytes,
 *    and encodedSizeBound covers every type's framed size.
 *  - decodeChallenge refuses an absurd count, and a count whose
 *    24-byte records are not present, before it sizes anything.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "net/wire.hpp"
#include "protocol/messages.hpp"
#include "protocol/serialize.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace net = authenticache::net;
namespace proto = authenticache::protocol;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace util = authenticache::util;

namespace {

/** CRC-32/IEEE one bit at a time: the definition, with no tables. */
std::uint32_t
bitwiseCrc32(std::span<const std::uint8_t> data)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (auto b : data) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

/**
 * A challenge of @p n bits built by arithmetic alone, so the golden
 * digests depend on the codec and nothing else (not on a generator
 * or an RNG stream).
 */
core::Challenge
arithmeticChallenge(std::uint32_t n, std::uint32_t salt)
{
    core::Challenge c;
    for (std::uint32_t i = 0; i < n; ++i) {
        core::ChallengeBit bit;
        bit.a.line.set = (i * 2654435761u + salt) % 4096u;
        bit.a.line.way = (i * 7u + salt) % 16u;
        bit.a.vddMv = 640u + (i % 5u) * 10u;
        bit.b.line.set = (i * 40503u + salt * 3u + 1u) % 4096u;
        bit.b.line.way = (i * 11u + salt + 3u) % 16u;
        bit.b.vddMv = 640u + ((i + 2u) % 5u) * 10u;
        c.bits.push_back(bit);
    }
    return c;
}

util::BitVec
patternBits(std::size_t n, std::size_t stride)
{
    util::BitVec v(n);
    for (std::size_t i = 0; i < n; i += stride)
        v.set(i, true);
    return v;
}

struct GoldenFrame
{
    std::uint64_t stream;
    proto::Message message;
    const char *sha256;
};

std::vector<GoldenFrame>
goldenFrames()
{
    proto::RemapAck ack;
    ack.nonce = 0x0A0B0C0D0E0F1011ULL;
    ack.success = true;
    for (std::size_t i = 0; i < ack.confirmation.size(); ++i)
        ack.confirmation[i] = static_cast<std::uint8_t>(i * 37 + 5);

    proto::TrustUpdate verdict;
    verdict.nonce = 0x5151515151515151ULL;
    verdict.trust = 731;
    verdict.tier = 2;
    verdict.accepted = true;
    verdict.hammingDistance = 9;

    // Digests recorded from the byte-at-a-time codec (see file head).
    return {
        {1, proto::AuthRequest{0xDEADBEEFCAFEULL},
         "84f1cd988833ed0e2c22f649580be4ba37ca82c41998c48cdcf757d9cae2dbeb"},
        {2, proto::ChallengeMsg{0x1122334455667788ULL,
                                arithmeticChallenge(128, 1)},
         "e2243e5dda756cf38e11eba5225e722ae12c5d59f3dfb9fc69718dfa51ff8a9b"},
        {3, proto::ResponseMsg{0x99ULL, patternBits(128, 3)},
         "bb5738887b26b4d29652e22c33fa30001eaa51326d2165878fef94f47407ae83"},
        {4, proto::AuthDecision{0x9AULL, true, 17},
         "cdca9cf735a56d9ac2013423a1a6346de28e7118f3c0c54a5bf50d8e8b3faff6"},
        {5,
         proto::RemapRequest{0x9BULL, arithmeticChallenge(96, 2),
                             patternBits(480, 5), 5},
         "a65573c38f8f865a3a0ffae8033ddb5ae32cba63b421027f86665ff36e443f57"},
        {6, ack,
         "098f8842a9b5385369af9d38958d640f7fe772d118e99176086c1483e1fd6bfd"},
        {7, proto::ErrorMsg{"frame codec golden"},
         "a24c8069da6283b6907427ef86927fbf7a241e6a6343a2fffed4cd35fc5c5344"},
        {8, proto::RemapCommit{0x9CULL, true},
         "b156ad09609ee3e9855322e7a75ade255ecf8aa421739ed5436eba93d28afeb4"},
        {0xFFFFFFFFFFFFFFFFULL,
         proto::Heartbeat{0x9DULL, 4242, arithmeticChallenge(128, 3)},
         "412437956e573b4d8733fc3c9311db9a4c79d05f5fc442e7550d9485a9ba2fe1"},
        {10, proto::HeartbeatProof{0x9DULL, patternBits(128, 7)},
         "eb0efba560fccc6490aa6615bf2468d3b8f1b58871862be582a126d3d848fc21"},
        {11, verdict,
         "46ce1fedf07b7c1890a004588d3e29005994f704519eb27ea8571a0e68553a05"},
        {0, proto::Revoke{0xFEEDULL, "trust exhausted"},
         "b8e2e612a221bc7ff5537005c89823f943f9ca7fbe5643b2c97d1596931441e2"},
    };
}

/** A raw challenge block: u32 count followed by @p records records. */
std::vector<std::uint8_t>
rawChallenge(std::uint32_t count, std::size_t records)
{
    proto::ByteWriter w;
    w.putU32(count);
    for (std::size_t i = 0; i < records * 6; ++i)
        w.putU32(static_cast<std::uint32_t>(i));
    return w.take();
}

} // namespace

TEST(FrameCodec, Crc32CheckValue)
{
    const std::string s = "123456789";
    std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
    EXPECT_EQ(util::crc32(bytes), 0xCBF43926u);
    EXPECT_EQ(bitwiseCrc32(bytes), 0xCBF43926u);
}

TEST(FrameCodec, Crc32MatchesBitwiseAtEveryLengthAndAlignment)
{
    const auto buf = randomBytes(4200 + 8, 0xC5C32);
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t len = 0; len <= 4200; ++len) {
            std::span<const std::uint8_t> s(buf.data() + start, len);
            ASSERT_EQ(util::crc32(s), bitwiseCrc32(s))
                << "start " << start << " len " << len;
        }
    }
}

TEST(FrameCodec, Crc32UpdateChainsAtEveryEightByteBoundary)
{
    const auto buf = randomBytes(4096, 0x5EED);
    const std::uint32_t whole = bitwiseCrc32(buf);
    ASSERT_EQ(util::crc32(buf), whole);
    for (std::size_t cut = 0; cut <= buf.size(); cut += 8) {
        std::span<const std::uint8_t> all(buf);
        std::uint32_t c = util::crc32Update(0, all.first(cut));
        c = util::crc32Update(c, all.subspan(cut));
        ASSERT_EQ(c, whole) << "cut at " << cut;
    }
    // Three-way split at unaligned offsets too.
    std::span<const std::uint8_t> all(buf);
    std::uint32_t c = util::crc32Update(0, all.first(13));
    c = util::crc32Update(c, all.subspan(13, 2001));
    c = util::crc32Update(c, all.subspan(2014));
    EXPECT_EQ(c, whole);
}

namespace {

std::string
crcPathName(const ::testing::TestParamInfo<util::SimdLevel> &param)
{
    return util::simdLevelName(param.param);
}

/** One CRC-32 path: the table (scalar) or the carry-less fold (avx2). */
class Crc32Paths : public ::testing::TestWithParam<util::SimdLevel>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == util::SimdLevel::Avx2 &&
            (util::detectedSimdLevel() < util::SimdLevel::Avx2 ||
             !util::cpuHasPclmul()))
            GTEST_SKIP() << "CPU lacks AVX2 or PCLMULQDQ";
    }
};

} // namespace

TEST_P(Crc32Paths, MatchesBitwiseAtEveryLengthAndOffset)
{
    const auto buf = randomBytes(4200 + 8, 0xC1A5);
    for (std::size_t start = 0; start < 8; ++start) {
        // The bitwise register after each prefix of the span, so the
        // reference costs one pass per offset.
        std::uint32_t ref = 0xFFFFFFFFu;
        for (std::size_t len = 0; len <= 4200; ++len) {
            std::span<const std::uint8_t> s(buf.data() + start, len);
            ASSERT_EQ(util::crc32Update(0, s, GetParam()),
                      ref ^ 0xFFFFFFFFu)
                << "start " << start << " len " << len;
            if (len < 4200) {
                ref ^= s.data()[len];
                for (int k = 0; k < 8; ++k)
                    ref = (ref >> 1) ^ (0xEDB88320u & (0u - (ref & 1u)));
            }
        }
    }
}

TEST_P(Crc32Paths, UpdateChainsAtEverySplit)
{
    const auto buf = randomBytes(4096, 0x5EED);
    const std::uint32_t whole = bitwiseCrc32(buf);
    std::span<const std::uint8_t> all(buf);
    const auto split = [&](std::size_t cut) {
        return util::crc32Update(
            util::crc32Update(0, all.first(cut), GetParam()),
            all.subspan(cut), GetParam());
    };
    for (std::size_t cut = 0; cut < 256; ++cut)
        ASSERT_EQ(split(cut), whole) << "cut at " << cut;
    for (std::size_t cut = 0; cut <= buf.size(); cut += 16)
        ASSERT_EQ(split(cut), whole) << "cut at " << cut;
}

INSTANTIATE_TEST_SUITE_P(FrameCodec, Crc32Paths,
                         ::testing::Values(util::SimdLevel::Scalar,
                                           util::SimdLevel::Avx2),
                         crcPathName);

TEST(FrameCodec, WireBytesMatchRecordedGoldens)
{
    const auto frames = goldenFrames();
    ASSERT_EQ(frames.size(), 12u);
    for (const auto &g : frames) {
        const auto bytes = net::encodeWireMessage(g.stream, g.message);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(bytes)),
                  std::string(g.sha256))
            << "type " << int(proto::messageType(g.message))
            << " size " << bytes.size();
        // The inner frame is the wire payload, byte for byte.
        const auto inner = proto::encodeMessage(g.message);
        ASSERT_EQ(bytes.size(), net::kWireHeaderBytes + inner.size() +
                                    net::kWireTrailerBytes);
        EXPECT_TRUE(std::equal(inner.begin(), inner.end(),
                               bytes.begin() + net::kWireHeaderBytes));
        // The reserve bound holds, so encoding never reallocates.
        EXPECT_LE(inner.size(), proto::encodedSizeBound(g.message));
    }
}

TEST(FrameCodec, AppendWireMessageExtendsExistingBuffer)
{
    const auto frames = goldenFrames();
    std::vector<std::uint8_t> out{0xAA, 0xBB};
    std::vector<std::uint8_t> want = out;
    for (const auto &g : frames) {
        const auto one = net::encodeWireMessage(g.stream, g.message);
        want.insert(want.end(), one.begin(), one.end());
        EXPECT_EQ(net::appendWireMessage(out, g.stream, g.message),
                  one.size());
    }
    EXPECT_EQ(out, want);
}

TEST(FrameCodec, ChallengeFrameSizeIsFixedByBitCount)
{
    // 4 len + 1 tag + 8 nonce + 4 count + 24 per bit + 4 crc, framed.
    const auto bytes = net::encodeWireMessage(
        7, proto::ChallengeMsg{1, arithmeticChallenge(128, 9)});
    EXPECT_EQ(bytes.size(), net::kWireHeaderBytes +
                                (4 + 1 + 8 + 4 + 24 * 128 + 4) +
                                net::kWireTrailerBytes);
}

TEST(FrameCodec, DecodeChallengeRejectsCountAboveLimit)
{
    const auto raw = rawChallenge((1u << 20) + 1, 0);
    proto::ByteReader r(raw);
    EXPECT_THROW(proto::decodeChallenge(r), proto::DecodeError);
}

TEST(FrameCodec, DecodeChallengeRejectsCountBeyondBytesPresent)
{
    // A count at the limit with no records behind it: refused on the
    // byte check, before 24 MiB of bits are sized.
    {
        const auto raw = rawChallenge(1u << 20, 0);
        proto::ByteReader r(raw);
        EXPECT_THROW(proto::decodeChallenge(r), proto::DecodeError);
    }
    // One record short of the count, and one byte short of it.
    {
        const auto raw = rawChallenge(5, 4);
        proto::ByteReader r(raw);
        EXPECT_THROW(proto::decodeChallenge(r), proto::DecodeError);
    }
    {
        auto raw = rawChallenge(5, 5);
        raw.pop_back();
        proto::ByteReader r(raw);
        EXPECT_THROW(proto::decodeChallenge(r), proto::DecodeError);
    }
    // The exact byte count decodes.
    {
        const auto raw = rawChallenge(5, 5);
        proto::ByteReader r(raw);
        const auto c = proto::decodeChallenge(r);
        EXPECT_EQ(c.size(), 5u);
        EXPECT_TRUE(r.exhausted());
        EXPECT_EQ(c.bits[4].b.vddMv, 29u);
    }
}

TEST(FrameCodec, ChallengeRoundTripPreservesEveryField)
{
    const auto c = arithmeticChallenge(300, 17);
    proto::ByteWriter w;
    proto::encodeChallenge(w, c);
    EXPECT_EQ(w.size(), 4u + 24u * 300u);
    proto::ByteReader r(w.bytes());
    const auto back = proto::decodeChallenge(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(back.bits, c.bits);
}
