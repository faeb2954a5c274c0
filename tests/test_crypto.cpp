/**
 * @file
 * Tests for SHA-256 / HMAC (published vectors), SipHash (reference
 * vectors), key derivation, the Feistel coordinate permutation, and
 * the fuzzy extractor.
 */

#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/feistel.hpp"
#include "crypto/fuzzy_extractor.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"

namespace c = authenticache::crypto;
using authenticache::util::BitVec;
using authenticache::util::Rng;

TEST(Sha256, EmptyStringVector)
{
    EXPECT_EQ(c::toHex(c::Sha256::hash(std::string(""))),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector)
{
    EXPECT_EQ(c::toHex(c::Sha256::hash(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector)
{
    EXPECT_EQ(c::toHex(c::Sha256::hash(std::string(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                  "mnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAVector)
{
    c::Sha256 h;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(c::toHex(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::string msg = "authenticache incremental hashing test";
    c::Sha256 h;
    for (char ch : msg)
        h.update(std::string(1, ch));
    EXPECT_EQ(h.finalize(), c::Sha256::hash(msg));
}

TEST(HmacSha256, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    std::string data = "Hi There";
    auto mac = c::hmacSha256(
        key, std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t *>(data.data()),
                 data.size()));
    EXPECT_EQ(c::toHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2)
{
    std::string key = "Jefe";
    std::string data = "what do ya want for nothing?";
    auto mac = c::hmacSha256(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(key.data()),
            key.size()),
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t *>(data.data()),
            data.size()));
    EXPECT_EQ(c::toHex(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(SipHash, ReferenceVectors)
{
    // Reference key and inputs from the SipHash paper's test vectors:
    // key = 000102...0f, input = first N bytes of 00, 01, 02, ...
    c::SipHashKey key{0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};

    std::vector<std::uint8_t> input;
    EXPECT_EQ(c::siphash24(key, input), 0x726fdb47dd0e0e31ull);

    for (std::uint8_t i = 0; i < 15; ++i)
        input.push_back(i);
    EXPECT_EQ(c::siphash24(key, input), 0xa129ca6149be45e5ull);
}

TEST(SipHash, WordOverloadMatchesByteSpan)
{
    c::SipHashKey key{1, 2};
    std::uint64_t w = 0x1122334455667788ull;
    std::array<std::uint8_t, 8> bytes;
    std::memcpy(bytes.data(), &w, 8);
    EXPECT_EQ(c::siphash24(key, w), c::siphash24(key, bytes));
}

TEST(SipHash, KeySensitivity)
{
    c::SipHashKey k1{1, 2};
    c::SipHashKey k2{1, 3};
    EXPECT_NE(c::siphash24(k1, 42ull), c::siphash24(k2, 42ull));
}

TEST(KeyDerivation, LabelsSeparateDomains)
{
    c::Key256 root = c::Key256::fromDigest(c::Sha256::hash(
        std::string("root")));
    EXPECT_NE(c::deriveKey(root, "a"), c::deriveKey(root, "b"));
    auto s1 = c::deriveSipHashKey(root, "x");
    auto s2 = c::deriveSipHashKey(root, "y");
    EXPECT_FALSE(s1 == s2);
}

TEST(KeyDerivation, Deterministic)
{
    c::Key256 root;
    root.bytes[0] = 7;
    EXPECT_EQ(c::deriveKey(root, "label"), c::deriveKey(root, "label"));
}

class FeistelDomains : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FeistelDomains, IsBijection)
{
    c::SipHashKey key{0xDEADBEEFull, 0xFEEDFACEull};
    std::uint64_t n = GetParam();
    c::FeistelPermutation perm(key, n);
    std::set<std::uint64_t> images;
    for (std::uint64_t x = 0; x < n; ++x) {
        std::uint64_t y = perm.map(x);
        ASSERT_LT(y, n);
        images.insert(y);
        ASSERT_EQ(perm.unmap(y), x);
    }
    EXPECT_EQ(images.size(), n);
}

INSTANTIATE_TEST_SUITE_P(SmallAndOddDomains, FeistelDomains,
                         ::testing::Values(2, 3, 7, 16, 100, 1000, 4096,
                                           5000));

TEST(Feistel, LargeDomainInverseSampled)
{
    c::SipHashKey key{123, 456};
    c::FeistelPermutation perm(key, 65536ull * 8);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t x = rng.nextBelow(perm.domain());
        EXPECT_EQ(perm.unmap(perm.map(x)), x);
    }
}

TEST(Feistel, DifferentKeysDifferentPermutations)
{
    c::FeistelPermutation p1(c::SipHashKey{1, 1}, 1024);
    c::FeistelPermutation p2(c::SipHashKey{1, 2}, 1024);
    int same = 0;
    for (std::uint64_t x = 0; x < 1024; ++x)
        same += p1.map(x) == p2.map(x);
    EXPECT_LT(same, 16); // ~1 expected by chance.
}

TEST(Feistel, PermutationLooksUniform)
{
    // Images of a contiguous block should scatter across the domain.
    c::FeistelPermutation perm(c::SipHashKey{9, 9}, 10000);
    std::uint64_t below_half = 0;
    for (std::uint64_t x = 0; x < 1000; ++x)
        below_half += perm.map(x) < 5000;
    EXPECT_GT(below_half, 400u);
    EXPECT_LT(below_half, 600u);
}

struct FeistelGolden
{
    std::uint64_t domain;
    std::vector<std::uint64_t> map;   ///< map(0..31)
    std::vector<std::uint64_t> unmap; ///< unmap(0..31)
};

void
PrintTo(const FeistelGolden &g, std::ostream *os)
{
    *os << "domain " << g.domain;
}

class FeistelGoldenVectors : public ::testing::TestWithParam<FeistelGolden>
{
};

TEST_P(FeistelGoldenVectors, MapAndUnmapMatchRecordedValues)
{
    // Recorded from the per-call SipHash round function. A round
    // table that still permutes but computes different values (wrong
    // round index, domain tweak or mask) fails here, where the
    // bijection tests above would pass. 1000, 5000 and 65537 exercise
    // cycle walking; 1024, 65536 and 2^20 are exact powers of four.
    // 65537 and 2^20 have 9- and 10-bit halves, so their round tables
    // take two bytes per entry where the others take one.
    const FeistelGolden &g = GetParam();
    c::FeistelPermutation perm(
        c::SipHashKey{0x0706050403020100ull, 0x0F0E0D0C0B0A0908ull},
        g.domain);
    for (std::uint64_t x = 0; x < 32; ++x) {
        EXPECT_EQ(perm.map(x), g.map[x]) << "map(" << x << ")";
        EXPECT_EQ(perm.unmap(x), g.unmap[x]) << "unmap(" << x << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    RecordedDomains, FeistelGoldenVectors,
    ::testing::Values(
        FeistelGolden{
            1000,
            {328, 413, 684, 168, 894, 414, 846, 627, 383, 556, 630,
             116, 189, 428, 570, 379, 826, 699, 621, 110, 105, 575,
             783, 204, 486, 479, 960, 662, 723, 282, 854, 860},
            {443, 209, 48,  570, 879, 326, 462, 105, 256, 767, 448,
             313, 743, 311, 244, 986, 211, 99,  176, 664, 160, 863,
             453, 647, 707, 315, 555, 849, 364, 683, 546, 394}},
        FeistelGolden{
            1024,
            {582, 218, 998, 280, 242, 521, 197, 482, 156, 977, 126,
             383, 173, 945, 843, 875, 690, 515, 61,  719, 862, 241,
             9,   1018, 296, 157, 255, 450, 833, 222, 243, 364},
            {917, 678, 894, 272, 67,  118, 239, 475, 152, 22,  517,
             132, 212, 344, 690, 722, 843, 407, 525, 135, 882, 921,
             205, 523, 581, 334, 700, 415, 238, 599, 1013, 602}},
        FeistelGolden{
            5000,
            {2107, 1105, 572,  4618, 4164, 2005, 3403, 1473,
             3114, 605,  2022, 1675, 2315, 1038, 4750, 2100,
             43,   4008, 4714, 4799, 2564, 3651, 3906, 1519,
             2162, 550,  169,  2013, 835,  2417, 268,  1541},
            {3913, 2620, 2359, 3340, 2717, 2726, 3211, 3952,
             251,  3661, 4951, 1634, 4337, 3265, 3005, 4925,
             549,  1093, 3337, 751,  4494, 111,  1999, 482,
             3163, 190,  3180, 1074, 2844, 4651, 4567, 1054}},
        FeistelGolden{
            65536,
            {15342, 17825, 28048, 35257, 36548, 47305, 30484, 7836,
             26177, 26778, 60780, 12903, 55470, 63275, 62118, 43160,
             24802, 58443, 36442, 64721, 2570,  27247, 12692, 36110,
             22615, 48658, 4836,  44095, 917,   18100, 1887,  36567},
            {32540, 14756, 65297, 24067, 4526,  63639, 32192, 35598,
             11845, 15821, 47973, 59079, 61241, 32075, 50550, 8084,
             11861, 46532, 18005, 56899, 33013, 55980, 27130, 19051,
             12127, 9855,  62024, 16994, 8742,  36374, 23952, 16796}},
        FeistelGolden{
            65537,
            {4913,  59212, 22759, 1044,  31001, 58852, 61470, 60247,
             57062, 58523, 32884, 24743, 7106,  44286, 13856, 26893,
             64038, 28864, 27473, 56097, 61859, 52661, 46629, 31062,
             62355, 2303,  22586, 63778, 16831, 19482, 40868, 53479},
            {60756, 51807, 23606, 36150, 27166, 43175, 59252, 3426,
             1052,  7953,  16795, 19069, 60920, 19896, 47845, 40702,
             8596,  14677, 13375, 40694, 58589, 50300, 23507, 31164,
             51713, 12069, 8118,  25778, 28437, 25654, 39303, 37603}},
        FeistelGolden{
            1u << 20,
            {203797, 746084, 551047, 997583,  614943, 161329, 722511,
             619224, 15341,  841470, 619565,  401801, 307440, 458669,
             502875, 1023468, 283575, 319196, 711973, 57298,  313755,
             873736, 924500, 299077, 651386,  269897, 716993, 414404,
             499181, 977917, 591064, 314399},
            {956163, 980696, 658123, 573414,  356002, 920039, 647218,
             974014, 1029884, 21567, 578155,  742453, 266477, 150091,
             531841, 911214, 143206, 164681,  207031, 761805, 264884,
             757084, 573986, 960075, 212541,  41897,  461169, 679563,
             863262, 976308, 446945, 99292}}),
    [](const ::testing::TestParamInfo<FeistelGolden> &param) {
        return "Domain" + std::to_string(param.param.domain);
    });

TEST(Feistel, RejectsDomainAboveTwoToThe32)
{
    c::SipHashKey key{1, 2};
    EXPECT_THROW(c::FeistelPermutation(key, (1ull << 32) + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(c::FeistelPermutation(key, 1ull << 32));
}

TEST(FuzzyExtractor, RejectsBadRepetition)
{
    EXPECT_THROW(c::FuzzyExtractor(4), std::invalid_argument);
    EXPECT_THROW(c::FuzzyExtractor(1), std::invalid_argument);
}

TEST(FuzzyExtractor, CleanReproduction)
{
    c::FuzzyExtractor fe(5);
    Rng rng(11);
    BitVec response(120);
    for (std::size_t i = 0; i < response.size(); ++i)
        response.set(i, rng.nextBool());

    auto out = fe.generate(response, rng);
    EXPECT_EQ(fe.reproduce(response, out.helper), out.key);
}

TEST(FuzzyExtractor, ToleratesCorrectableNoise)
{
    c::FuzzyExtractor fe(5);
    Rng rng(13);
    BitVec response(200);
    for (std::size_t i = 0; i < response.size(); ++i)
        response.set(i, rng.nextBool());
    auto out = fe.generate(response, rng);

    // Up to 2 flips per 5-bit group are tolerated: flip 2 bits in each
    // of several groups.
    BitVec noisy = response;
    for (std::size_t g = 0; g < 200 / 5; ++g) {
        noisy.flip(g * 5 + 1);
        noisy.flip(g * 5 + 3);
    }
    EXPECT_EQ(fe.reproduce(noisy, out.helper), out.key);
}

TEST(FuzzyExtractor, FailsBeyondCorrectionRadius)
{
    c::FuzzyExtractor fe(3);
    Rng rng(17);
    BitVec response(90);
    for (std::size_t i = 0; i < response.size(); ++i)
        response.set(i, rng.nextBool());
    auto out = fe.generate(response, rng);

    BitVec noisy = response;
    noisy.flip(0);
    noisy.flip(1); // Two flips in a 3-group: majority flips.
    EXPECT_NE(fe.reproduce(noisy, out.helper), out.key);
}

TEST(FuzzyExtractor, HelperAloneDoesNotDetermineKey)
{
    // Two different responses with the same helper produce different
    // keys: the helper is not a key encoding.
    c::FuzzyExtractor fe(5);
    Rng rng(19);
    BitVec r1(100);
    BitVec r2(100);
    for (std::size_t i = 0; i < 100; ++i) {
        r1.set(i, rng.nextBool());
        r2.set(i, rng.nextBool());
    }
    auto out = fe.generate(r1, rng);
    EXPECT_NE(fe.reproduce(r2, out.helper), out.key);
}

TEST(FuzzyExtractor, LengthValidation)
{
    c::FuzzyExtractor fe(5);
    Rng rng(23);
    BitVec response(101); // Not a multiple of 5.
    EXPECT_THROW(fe.generate(response, rng), std::invalid_argument);

    BitVec ok(100);
    auto out = fe.generate(ok, rng);
    BitVec wrong(95);
    EXPECT_THROW(fe.reproduce(wrong, out.helper),
                 std::invalid_argument);
}
