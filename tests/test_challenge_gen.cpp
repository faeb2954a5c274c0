/**
 * @file
 * The server's expected response must not depend on how it is
 * computed. ChallengeGenerator evaluates with the SIMD plane scan over
 * the record's cached logical map; these tests hold every generation
 * path to Eq 8 over per-endpoint nearestErrorBrute distances under a
 * random key, the identity key, two challenge levels, and after a key
 * rotation rebuilds the remap.
 * Golden digests pin evaluate() bits and whole generated challenges,
 * including how pairs are drawn.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/challenge.hpp"
#include "core/nearest.hpp"
#include "crypto/sha256.hpp"
#include "mc/mapgen.hpp"
#include "server/challenge_gen.hpp"

namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace srv = authenticache::server;
using authenticache::util::Rng;

namespace {

// 1024 lines: the heartbeat fleet's shape.
const sim::CacheGeometry kGeom(64 * 1024);

crypto::Key256
keyFrom(const std::string &label)
{
    return crypto::Key256::fromDigest(crypto::Sha256::hash(label));
}

/** Challenge levels 700 and 710, each with @p errors errors. */
srv::DeviceRecord
makeRecord(std::size_t errors, std::uint64_t seed)
{
    Rng rng(seed);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, errors, rng);
    auto more = authenticache::mc::randomErrorMap(kGeom, 710, errors, rng);
    for (const auto &e : more.plane(710).errors())
        map.plane(710).add(e);
    return srv::DeviceRecord(1, std::move(map), {700, 710}, {});
}

/**
 * The brute oracle over the record's current logical map: Eq 8 on
 * each endpoint's nearestErrorBrute distance, infinite when its level
 * has no plane or an empty one. (The *MatchesIndexed case names date
 * from an earlier indexed oracle; they are kept so test history
 * stays continuous.)
 */
core::Response
bruteExpected(const srv::DeviceRecord &record,
              const core::Challenge &challenge)
{
    const core::ErrorMap &map = record.logicalMap();
    auto distance = [&](const core::ChallengePoint &p) {
        if (!map.hasPlane(p.vddMv))
            return core::kInfiniteDistance;
        auto r = core::nearestErrorBrute(map.plane(p.vddMv), p.line);
        return r.found ? r.distance : core::kInfiniteDistance;
    };
    core::Response response(challenge.size());
    for (std::size_t i = 0; i < challenge.size(); ++i) {
        response.set(i, core::responseBitFromDistances(
                            distance(challenge.bits[i].a),
                            distance(challenge.bits[i].b)));
    }
    return response;
}

} // namespace

class ChallengeGenExpected : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChallengeGenExpected, RandomKeySingleLevelMatchesIndexed)
{
    auto record = makeRecord(GetParam(), 1);
    record.setMapKey(keyFrom("random"));
    srv::ChallengeGenerator gen(Rng(2));
    Rng rng(3);
    for (int round = 0; round < 8; ++round) {
        auto out = gen.generate(record, round % 2 ? 710 : 700, 64, rng);
        EXPECT_EQ(out.expected, bruteExpected(record, out.challenge));
    }
}

TEST_P(ChallengeGenExpected, IdentityKeyMatchesIndexed)
{
    auto record = makeRecord(GetParam(), 4);
    ASSERT_TRUE(record.logicalRemap().isIdentity());
    srv::ChallengeGenerator gen(Rng(5));
    for (int round = 0; round < 8; ++round) {
        auto out = gen.generate(record, 700, 128);
        EXPECT_EQ(out.expected, bruteExpected(record, out.challenge));
        EXPECT_EQ(out.expected,
                  core::evaluate(record.physicalMap(), out.challenge));
    }
}

TEST_P(ChallengeGenExpected, MultiLevelMatchesIndexed)
{
    auto record = makeRecord(GetParam(), 6);
    record.setMapKey(keyFrom("multi"));
    srv::ChallengeGenerator gen(Rng(7));
    for (int round = 0; round < 8; ++round) {
        auto out = gen.generateMultiLevel(record, 64);
        EXPECT_EQ(out.expected, bruteExpected(record, out.challenge));
    }
}

TEST_P(ChallengeGenExpected, KeyRotationUsesRebuiltRemap)
{
    auto record = makeRecord(GetParam(), 8);
    record.setMapKey(keyFrom("before"));
    srv::ChallengeGenerator gen(Rng(9));
    Rng rng(10);
    auto before = gen.generate(record, 700, 64, rng);
    EXPECT_EQ(before.expected, bruteExpected(record, before.challenge));

    // After the rotation the cached views must come from the new key:
    // the logical map equals a fresh remap's, and both generation
    // paths evaluate against it.
    record.setMapKey(keyFrom("after"));
    core::LogicalRemap fresh(record.mapKey(), kGeom);
    ASSERT_EQ(record.logicalMap(), fresh.mapErrorMap(record.physicalMap()));
    for (int round = 0; round < 4; ++round) {
        auto single = gen.generate(record, 710, 64, rng);
        EXPECT_EQ(single.expected,
                  bruteExpected(record, single.challenge));
        auto multi = gen.generateMultiLevel(record, 64, rng);
        EXPECT_EQ(multi.expected,
                  bruteExpected(record, multi.challenge));
    }
}

// 40 errors per plane is the heartbeat fleet's density; 400 on 1024
// lines makes equal-distance ties common.
INSTANTIATE_TEST_SUITE_P(ErrorsPerPlane, ChallengeGenExpected,
                         ::testing::Values(40, 400));

TEST(ChallengeGenScratchForwarder, SameOutputAsScratchless)
{
    auto a = makeRecord(40, 11);
    a.setMapKey(keyFrom("fwd"));
    auto b = a;
    srv::ChallengeGenerator gen(Rng(12));
    Rng rng_a(13);
    Rng rng_b(13);
    core::EvalScratch scratch;
    auto plain = gen.generate(a, 700, 64, rng_a);
    auto forwarded = gen.generate(b, 700, 64, rng_b, scratch);
    EXPECT_EQ(plain.challenge.bits, forwarded.challenge.bits);
    EXPECT_EQ(plain.expected, forwarded.expected);
    auto plain_ml = gen.generateMultiLevel(a, 64, rng_a);
    auto forwarded_ml = gen.generateMultiLevel(b, 64, rng_b, scratch);
    EXPECT_EQ(plain_ml.challenge.bits, forwarded_ml.challenge.bits);
    EXPECT_EQ(plain_ml.expected, forwarded_ml.expected);
}

// ---------------------------------------------------------------
// Goldens. Recorded from the plane-scan evaluator and the
// per-point remap draw loop; any change to how expected responses
// are computed or how pairs are drawn must keep every digest. Each
// digest is the first 16 hex digits of SHA-256 over a text
// transcript (see transcript()).
// ---------------------------------------------------------------

namespace {

std::string
digest16(const std::string &text)
{
    return crypto::toHex(crypto::Sha256::hash(text)).substr(0, 16);
}

void
appendPoint(std::string &out, const core::ChallengePoint &p)
{
    out += std::to_string(p.line.set) + "," +
           std::to_string(p.line.way) + "@" +
           std::to_string(p.vddMv) + " ";
}

std::string
challengeText(const core::Challenge &challenge)
{
    std::string out;
    for (const auto &bit : challenge.bits) {
        appendPoint(out, bit.a);
        appendPoint(out, bit.b);
        out += ";";
    }
    return out;
}

/** Logical points, expected bits, retired pairs, next RNG draw. */
std::string
transcript(const srv::GeneratedChallenge &g, Rng &rng)
{
    std::string out = "level " + std::to_string(g.level) + "\n";
    out += challengeText(g.challenge) + "\n";
    out += g.expected.toString() + "\n";
    for (const auto &r : g.retired) {
        out += std::to_string(r.levelA) + "/" + std::to_string(r.levelB) +
               ":" + std::to_string(r.lineA) + "-" +
               std::to_string(r.lineB) + " ";
    }
    out += "\nnext " + std::to_string(rng.next());
    return out;
}

/**
 * Planes 700 and 710 with 40 errors each, an empty plane at 720 and
 * a reserved plane at 690; level 730 has no plane at all.
 */
core::ErrorMap
goldenMap(const sim::CacheGeometry &geom, std::uint64_t seed)
{
    Rng rng(seed);
    core::ErrorMap map(geom);
    for (core::VddMv level : {700u, 710u, 690u}) {
        auto plane = authenticache::mc::randomPlane(geom, 40, rng);
        for (const auto &e : plane.errors())
            map.plane(level).add(e);
    }
    map.plane(720);
    return map;
}

/** @p bits random bits whose endpoints draw from @p levels. */
core::Challenge
mixedChallenge(const sim::CacheGeometry &geom,
               const std::vector<core::VddMv> &levels,
               std::size_t bits, Rng &rng)
{
    core::Challenge challenge;
    for (std::size_t i = 0; i < bits; ++i) {
        core::ChallengeBit bit;
        bit.a.line = geom.pointOf(rng.nextBelow(geom.lines()));
        bit.a.vddMv = levels[rng.nextBelow(levels.size())];
        bit.b.line = geom.pointOf(rng.nextBelow(geom.lines()));
        bit.b.vddMv = levels[rng.nextBelow(levels.size())];
        challenge.bits.push_back(bit);
    }
    return challenge;
}

} // namespace

TEST(EvaluateGolden, SingleLevelResponses)
{
    const sim::CacheGeometry geom(4 * 1024 * 1024);
    const auto map = goldenMap(geom, 0x6011);
    Rng rng(0x6012);
    std::string out;
    for (std::size_t bits : {64u, 128u, 512u}) {
        auto challenge = core::randomChallenge(geom, 700, bits, rng);
        out += digest16(core::evaluate(map, challenge).toString()) + " ";
    }
    EXPECT_EQ(out, "44c8ffc9f80dcce7 10f83acf30900868 d19c189af6e26bef ");
}

TEST(EvaluateGolden, MultiLevelWithMissingAndEmptyPlanes)
{
    const sim::CacheGeometry geom(4 * 1024 * 1024);
    const auto map = goldenMap(geom, 0x6021);
    Rng rng(0x6022);
    std::string out;
    for (std::size_t bits : {64u, 128u, 512u}) {
        auto challenge =
            mixedChallenge(geom, {700, 710, 720, 730}, bits, rng);
        out += digest16(core::evaluate(map, challenge).toString()) + " ";
    }
    EXPECT_EQ(out, "02109f9d729fa01f 50832f8400cdf74b 2d5e1f91b050b24e ");
}

TEST(ChallengeGenGolden, Generate)
{
    srv::DeviceRecord record(1, goldenMap(kGeom, 0x6031), {700, 710},
                             {690});
    record.setMapKey(keyFrom("golden"));
    srv::ChallengeGenerator gen(Rng(0x6032));
    Rng rng(0x6033);
    std::string out;
    for (int round = 0; round < 4; ++round) {
        auto g = gen.generate(record, round % 2 ? 710 : 700,
                              round < 2 ? 64 : 128, rng);
        out += digest16(transcript(g, rng)) + " ";
    }
    EXPECT_EQ(out, "e20a8a08d6873660 e856ca9b33591cc3 fa44a7ff452465e0 68d6db21b21d9cbe ");
}

TEST(ChallengeGenGolden, GenerateIdentityKey)
{
    srv::DeviceRecord record(1, goldenMap(kGeom, 0x6041), {700, 710},
                             {690});
    srv::ChallengeGenerator gen(Rng(0x6042));
    Rng rng(0x6043);
    std::string out;
    for (int round = 0; round < 2; ++round)
        out += digest16(transcript(gen.generate(record, 700, 64, rng),
                                   rng)) +
               " ";
    EXPECT_EQ(out, "10c0929a6ef94996 39e009b98482a282 ");
}

TEST(ChallengeGenGolden, GenerateReserved)
{
    srv::DeviceRecord record(1, goldenMap(kGeom, 0x6051), {700, 710},
                             {690});
    record.setMapKey(keyFrom("golden-reserved"));
    srv::ChallengeGenerator gen(Rng(0x6052));
    Rng rng(0x6053);
    std::string out;
    for (int round = 0; round < 2; ++round)
        out += digest16(transcript(
                   gen.generateReserved(record, 690, 64, rng), rng)) +
               " ";
    EXPECT_EQ(out, "30b2ebe559510c62 04801acfe98d930e ");
}

TEST(ChallengeGenGolden, GenerateMultiLevel)
{
    srv::DeviceRecord record(1, goldenMap(kGeom, 0x6061),
                             {700, 710, 720}, {690});
    record.setMapKey(keyFrom("golden-multi"));
    srv::ChallengeGenerator gen(Rng(0x6062));
    Rng rng(0x6063);
    std::string out;
    for (int round = 0; round < 3; ++round)
        out += digest16(transcript(
                   gen.generateMultiLevel(record, 64 << round, rng),
                   rng)) +
               " ";
    EXPECT_EQ(out, "7ba0c8647dd6d62c 5471a30f9b11c687 adcc09d69a64e82a ");
}
