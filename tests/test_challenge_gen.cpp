/**
 * @file
 * The server's expected response must not depend on how it is
 * computed. ChallengeGenerator evaluates with the SIMD plane scan over
 * the record's cached logical map; these tests hold every generation
 * path to the indexed evaluator (core::evaluateIndexed over freshly
 * built ErrorIndexes) under a random key, the identity key, two
 * challenge levels, and after a key rotation rebuilds the remap.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/challenge.hpp"
#include "core/error_index.hpp"
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

/** The indexed oracle over the record's current logical map. */
core::Response
indexedExpected(const srv::DeviceRecord &record,
                const core::Challenge &challenge)
{
    core::EvalScratch scratch;
    return core::evaluateIndexed(
        core::buildErrorIndexes(record.logicalMap()), challenge,
        scratch);
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
        EXPECT_EQ(out.expected, indexedExpected(record, out.challenge));
    }
}

TEST_P(ChallengeGenExpected, IdentityKeyMatchesIndexed)
{
    auto record = makeRecord(GetParam(), 4);
    ASSERT_TRUE(record.logicalRemap().isIdentity());
    srv::ChallengeGenerator gen(Rng(5));
    for (int round = 0; round < 8; ++round) {
        auto out = gen.generate(record, 700, 128);
        EXPECT_EQ(out.expected, indexedExpected(record, out.challenge));
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
        EXPECT_EQ(out.expected, indexedExpected(record, out.challenge));
    }
}

TEST_P(ChallengeGenExpected, KeyRotationUsesRebuiltRemap)
{
    auto record = makeRecord(GetParam(), 8);
    record.setMapKey(keyFrom("before"));
    srv::ChallengeGenerator gen(Rng(9));
    Rng rng(10);
    auto before = gen.generate(record, 700, 64, rng);
    EXPECT_EQ(before.expected, indexedExpected(record, before.challenge));

    // After the rotation the cached views must come from the new key:
    // the logical map equals a fresh remap's, and both generation
    // paths evaluate against it.
    record.setMapKey(keyFrom("after"));
    core::LogicalRemap fresh(record.mapKey(), kGeom);
    ASSERT_EQ(record.logicalMap(), fresh.mapErrorMap(record.physicalMap()));
    for (int round = 0; round < 4; ++round) {
        auto single = gen.generate(record, 710, 64, rng);
        EXPECT_EQ(single.expected,
                  indexedExpected(record, single.challenge));
        auto multi = gen.generateMultiLevel(record, 64, rng);
        EXPECT_EQ(multi.expected,
                  indexedExpected(record, multi.challenge));
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
