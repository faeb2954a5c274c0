/**
 * @file
 * The server's expected response must not depend on how it is
 * computed. ChallengeGenerator evaluates with the SIMD plane scan over
 * the record's per-level logical views; these tests hold every
 * generation path to Eq 8 over per-endpoint nearestErrorBrute
 * distances on a map remapped independently of those views, under a
 * random key, the identity key, two challenge levels, an empty plane,
 * a 37-bit challenge, after a key rotation rebuilds the views, and on
 * a record copy that shares them across the rotation.
 * Golden digests pin evaluate() bits and whole generated challenges,
 * including how pairs are drawn. The PairStream suite holds the
 * counter-indexed pair streams to exactly-once over whole small
 * domains, across key rotations, snapshots and exhaustion; the
 * GeneratorStats suite holds generator output to distributions
 * (endpoint usage, orientation, uniformity, aliasing, and what a
 * model-building eavesdropper learns from it).
 */

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "attack/model_attack.hpp"
#include "core/challenge.hpp"
#include "core/nearest.hpp"
#include "crypto/sha256.hpp"
#include "mc/mapgen.hpp"
#include "metrics/quality.hpp"
#include "server/challenge_gen.hpp"
#include "server/server.hpp"
#include "server/storage.hpp"

namespace sim = authenticache::sim;
namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace srv = authenticache::server;
namespace proto = authenticache::protocol;
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
 * The brute oracle over the record's map remapped under its current
 * key by a fresh LogicalRemap (not the record's views): Eq 8 on each
 * endpoint's nearestErrorBrute distance, infinite when its level has
 * no plane or an empty one. (The *MatchesIndexed case names date from
 * an earlier indexed oracle; they are kept so test history stays
 * continuous.)
 */
core::Response
bruteExpected(const srv::DeviceRecord &record,
              const core::Challenge &challenge)
{
    const core::ErrorMap map =
        core::LogicalRemap(record.mapKey(), record.physicalMap().geometry())
            .mapErrorMap(record.physicalMap());
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

/**
 * The record's view of @p level holds exactly what a fresh
 * LogicalRemap under its key gives: the same errors in sorted (set,
 * way) order and the same permutation.
 */
void
expectViewMatchesRemap(const srv::DeviceRecord &record, core::VddMv level)
{
    const auto &geom = record.physicalMap().geometry();
    const core::LogicalRemap remap(record.mapKey(), geom);
    const core::ErrorPlane want =
        remap.mapErrorMap(record.physicalMap()).plane(level);
    const core::LogicalPlane &view = record.logicalPlane(level);
    EXPECT_EQ(view.level(), level);
    EXPECT_EQ(view.ways(), geom.ways());
    EXPECT_TRUE(std::ranges::equal(view.errorLines(), want.errorLines()));
    ASSERT_FALSE(remap.isIdentity());
    for (std::uint64_t line = 0; line < geom.lines(); line += 7)
        EXPECT_EQ(view.permutation().map(line),
                  remap.permutation(level)->map(line));
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
    ASSERT_EQ(record.mapKey(), crypto::Key256::zero());
    srv::ChallengeGenerator gen(Rng(5));
    for (int round = 0; round < 8; ++round) {
        auto out = gen.generate(record, 700, 128);
        EXPECT_EQ(out.expected, bruteExpected(record, out.challenge));
        EXPECT_EQ(out.expected,
                  core::evaluate(record.physicalMap(), out.challenge));
        auto multi = gen.generateMultiLevel(record, 64);
        EXPECT_EQ(multi.expected, bruteExpected(record, multi.challenge));
    }
    // Neither path built a view: the identity key has none.
    EXPECT_THROW(record.logicalPlane(700), std::invalid_argument);
    EXPECT_THROW(core::LogicalPlane(crypto::Key256::zero(),
                                    record.physicalMap(), 710),
                 std::invalid_argument);
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

    // After the rotation the views must come from the new key: each
    // equals a fresh remap's, and both generation paths evaluate
    // against them.
    record.setMapKey(keyFrom("after"));
    expectViewMatchesRemap(record, 700);
    expectViewMatchesRemap(record, 710);
    for (int round = 0; round < 4; ++round) {
        auto single = gen.generate(record, 710, 64, rng);
        EXPECT_EQ(single.expected,
                  bruteExpected(record, single.challenge));
        auto multi = gen.generateMultiLevel(record, 64, rng);
        EXPECT_EQ(multi.expected,
                  bruteExpected(record, multi.challenge));
    }
}

TEST_P(ChallengeGenExpected, EmptyPlaneAnswersAllZero)
{
    // Level 720 has a plane but no error: both endpoints of every bit
    // are infinitely far, and the tie answers 0.
    Rng rng(14);
    auto map = authenticache::mc::randomErrorMap(kGeom, 700, GetParam(),
                                                 rng);
    map.plane(720);
    srv::DeviceRecord record(1, std::move(map), {700, 720}, {});
    record.setMapKey(keyFrom("empty"));
    expectViewMatchesRemap(record, 720);
    EXPECT_EQ(record.logicalPlane(720).errorCount(), 0u);
    srv::ChallengeGenerator gen(Rng(15));
    for (int round = 0; round < 4; ++round) {
        auto out = gen.generate(record, 720, 64, rng);
        EXPECT_EQ(out.expected, core::Response(64));
        EXPECT_EQ(out.expected, bruteExpected(record, out.challenge));
        auto multi = gen.generateMultiLevel(record, 64, rng);
        EXPECT_EQ(multi.expected, bruteExpected(record, multi.challenge));
    }
}

TEST_P(ChallengeGenExpected, OddWidthMatchesIndexed)
{
    // 37 bits: a response that fills no whole word.
    auto record = makeRecord(GetParam(), 16);
    record.setMapKey(keyFrom("odd"));
    srv::ChallengeGenerator gen(Rng(17));
    Rng rng(18);
    for (int round = 0; round < 4; ++round) {
        auto single = gen.generate(record, 710, 37, rng);
        ASSERT_EQ(single.expected.size(), 37u);
        EXPECT_EQ(single.expected, bruteExpected(record, single.challenge));
        auto multi = gen.generateMultiLevel(record, 37, rng);
        EXPECT_EQ(multi.expected, bruteExpected(record, multi.challenge));
    }
}

TEST_P(ChallengeGenExpected, CopyKeepsViewsAcrossRotation)
{
    // The copy is taken after both views are built, so it shares them;
    // rotating the original must leave the copy on the old key and
    // give the original views of the new one.
    auto record = makeRecord(GetParam(), 19);
    record.setMapKey(keyFrom("old"));
    srv::ChallengeGenerator gen(Rng(20));
    Rng rng(21);
    gen.generateMultiLevel(record, 16, rng);
    srv::DeviceRecord copy = record;
    record.setMapKey(keyFrom("new"));
    ASSERT_EQ(copy.mapKey(), keyFrom("old"));
    for (int round = 0; round < 4; ++round) {
        auto old_out = gen.generate(copy, 700, 64, rng);
        EXPECT_EQ(old_out.expected, bruteExpected(copy, old_out.challenge));
        auto new_out = gen.generate(record, 700, 64, rng);
        EXPECT_EQ(new_out.expected,
                  bruteExpected(record, new_out.challenge));
        auto new_multi = gen.generateMultiLevel(record, 64, rng);
        EXPECT_EQ(new_multi.expected,
                  bruteExpected(record, new_multi.challenge));
    }
    expectViewMatchesRemap(copy, 700);
    expectViewMatchesRemap(copy, 710);
    expectViewMatchesRemap(record, 700);
    expectViewMatchesRemap(record, 710);
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
// Goldens. The evaluate() digests were recorded from the plane-scan
// evaluator; the ChallengeGenGolden digests from the counter-indexed
// pair streams (zero pair seed). Any change to how expected
// responses are computed or how pairs are drawn must keep every
// digest. Each digest is the first 16 hex digits of SHA-256 over a
// text transcript (see transcript()).
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

/** Logical points, expected bits, stream counters, next RNG draw. */
std::string
transcript(const srv::GeneratedChallenge &g, Rng &rng)
{
    std::string out = "level " + std::to_string(g.level) + "\n";
    out += challengeText(g.challenge) + "\n";
    out += g.expected.toString() + "\n";
    for (const auto &r : g.retired) {
        out += std::to_string(r.levelA) + "/" + std::to_string(r.levelB) +
               ":" + std::to_string(r.counter) + " ";
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
    EXPECT_EQ(out, "391bf1e3c61eee8d 961d322ba5328c51 03b8e8aca6b3cfd6 10dcf822bcbb5923 ");
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
    EXPECT_EQ(out, "b0e55215c33786cc e68957a2131a3bb6 ");
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
    EXPECT_EQ(out, "62955d293af05d18 942f77e4db0cc3cf ");
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
    EXPECT_EQ(out, "2570874c39d3d7a0 eb335f53bcdbd86c 4916f1bd05e2927f ");
}

// ---------------------------------------------------------------
// PairStream: exactly-once by construction. Whole domains are drawn
// at a 4 KiB geometry (64 lines: 2016 pairs per level, 4096 per level
// pair) against a std::set oracle in physical identity.
// ---------------------------------------------------------------

namespace {

const sim::CacheGeometry kSmall(4 * 1024);

using Pair = std::array<std::uint64_t, 4>; // level, line, level, line

/** Levels 700/710/720 (challenge) and 690 (reserved), 6 errors each. */
srv::DeviceRecord
smallRecord(std::uint64_t seed)
{
    Rng rng(seed);
    core::ErrorMap map(kSmall);
    for (core::VddMv level : {700u, 710u, 720u, 690u}) {
        auto plane = authenticache::mc::randomPlane(kSmall, 6, rng);
        for (const auto &e : plane.errors())
            map.plane(level).add(e);
    }
    srv::DeviceRecord record(seed, std::move(map), {700, 710, 720},
                             {690});
    record.setPairSeed(srv::PairSeed{rng.next(), rng.next()});
    record.setMapKey(keyFrom("small" + std::to_string(seed)));
    return record;
}

/**
 * Adds a generated challenge's pairs to @p oracle in physical
 * identity (reserved challenges use the identity mapping); every pair
 * must be new in either order.
 */
void
recordPairs(const srv::DeviceRecord &record,
            const srv::GeneratedChallenge &g, bool reserved,
            std::set<Pair> &oracle)
{
    const core::LogicalRemap remap(record.mapKey(), kSmall);
    auto physical = [&](const core::ChallengePoint &p) {
        std::uint64_t line = kSmall.lineIndex(p.line);
        const auto *perm =
            reserved ? nullptr : remap.permutation(p.vddMv);
        return std::pair<std::uint64_t, std::uint64_t>{
            p.vddMv, perm != nullptr ? perm->unmap(line) : line};
    };
    for (const auto &bit : g.challenge.bits) {
        auto a = physical(bit.a), b = physical(bit.b);
        ASSERT_NE(a, b);
        if (b < a)
            std::swap(a, b);
        EXPECT_TRUE(oracle.insert({a.first, a.second, b.first, b.second})
                        .second)
            << "reissued pair " << a.first << ":" << a.second << " "
            << b.first << ":" << b.second;
    }
}

/** Drain a single or reserved level in @p chunk-bit challenges. */
void
drainLevel(srv::DeviceRecord &record, core::VddMv level, bool reserved,
           std::size_t chunk, std::set<Pair> &oracle)
{
    srv::ChallengeGenerator gen(Rng(1));
    const std::uint64_t domain = record.streamDomain(level, level);
    while (record.remainingPairs(level) > 0) {
        const std::size_t bits = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk, record.remainingPairs(level)));
        auto g = reserved ? gen.generateReserved(record, level, bits)
                          : gen.generate(record, level, bits);
        recordPairs(record, g, reserved, oracle);
        EXPECT_EQ(record.remainingPairs(level),
                  domain - record.consumedCount(level));
    }
}

} // namespace

TEST(PairStream, PermutationIsBijection)
{
    std::vector<std::uint64_t> domains = {1, 2, 3, 2016};
    for (unsigned k : {4u, 11u, 16u})
        for (std::uint64_t d : {(1ull << k) - 1, 1ull << k, (1ull << k) + 1})
            domains.push_back(d);
    Rng rng(0xB17);
    for (std::uint64_t n : domains) {
        for (int key = 0; key < 4; ++key) {
            srv::PairSeed seed;
            if (key > 0)
                seed = srv::PairSeed{rng.next(), rng.next()};
            const srv::PairPermutation perm(n, seed, 700,
                                            key == 3 ? 710 : 700);
            std::vector<bool> hit(n, false);
            for (std::uint64_t x = 0; x < n; ++x) {
                const std::uint64_t y = perm.map(x);
                ASSERT_LT(y, n) << "N " << n;
                ASSERT_FALSE(hit[y]) << "N " << n << " collides at " << x;
                hit[y] = true;
                ASSERT_EQ(perm.unmap(y), x) << "N " << n;
            }
        }
    }
}

TEST(PairStream, UnrankInvertsRank)
{
    // Every pair of a 64-line domain, then samples up to the largest
    // line count the streams support (2^31 lines), where the double
    // root is least precise.
    std::uint64_t rank = 0;
    for (std::uint64_t hi = 1; hi < 64; ++hi)
        for (std::uint64_t lo = 0; lo < hi; ++lo, ++rank) {
            ASSERT_EQ(srv::rankPair(lo, hi), rank);
            ASSERT_EQ(srv::unrankPair(rank), std::pair(lo, hi));
        }
    Rng rng(0x5A7);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t hi = 1 + rng.nextBelow((1ull << 31) - 1);
        for (std::uint64_t lo : {std::uint64_t{0}, rng.nextBelow(hi), hi - 1})
            ASSERT_EQ(srv::unrankPair(srv::rankPair(lo, hi)),
                      std::pair(lo, hi));
    }
}

TEST(PairStream, WholeDomainSingleAndReservedLevel)
{
    auto record = smallRecord(1);
    std::set<Pair> oracle;
    drainLevel(record, 700, false, 64, oracle);
    drainLevel(record, 690, true, 100, oracle);
    EXPECT_EQ(oracle.size(), 2u * 2016u);
    EXPECT_EQ(record.consumedCount(700), 2016u);
    EXPECT_EQ(record.remainingPairs(710), 2016u); // Untouched level.
}

TEST(PairStream, WholeDomainEveryLevelPair)
{
    // Multi-level picks: same-level picks share the level's stream,
    // each level pair has its own n^2 stream. A pick of a spent
    // stream throws and retires nothing; keep drawing until every
    // stream of the record is spent.
    auto record = smallRecord(2);
    srv::ChallengeGenerator gen(Rng(3));
    Rng rng(4);
    const std::vector<core::VddMv> levels = {700, 710, 720};
    auto left = [&] {
        std::uint64_t n = 0;
        for (auto a : levels)
            for (auto b : levels)
                n += a <= b ? record.remainingPairs(a, b) : 0;
        return n;
    };
    auto bytes = [&] {
        srv::EnrollmentDatabase db;
        db.enroll(record);
        return srv::saveDatabase(db);
    };
    std::set<Pair> oracle;
    std::size_t bits = 4;
    while (left() > 0) {
        const auto before = bytes();
        try {
            recordPairs(record, gen.generateMultiLevel(record, bits, rng),
                        false, oracle);
        } catch (const std::runtime_error &) {
            ASSERT_EQ(bytes(), before);
            // Finish with 1-bit challenges, so every stream can be
            // drawn to its last pair.
            bits = 1;
        }
    }
    EXPECT_EQ(oracle.size(), 3u * 2016u + 3u * 4096u);
}

TEST(PairStream, ContinuesAcrossKeyRotation)
{
    // Streams are physical: a rotation in mid-domain changes the
    // logical view of the rest, never which pairs are left.
    auto record = smallRecord(3);
    srv::ChallengeGenerator gen(Rng(5));
    std::set<Pair> oracle;
    for (int i = 0; i < 16; ++i)
        recordPairs(record, gen.generate(record, 710, 63), false, oracle);
    record.setMapKey(keyFrom("rotated"));
    drainLevel(record, 710, false, 63, oracle);
    EXPECT_EQ(oracle.size(), 2016u);
}

TEST(PairStream, ContinuesAcrossSnapshot)
{
    // Snapshot -> decode -> re-serve at the midpoint: the decoded
    // record issues exactly what the original would have.
    auto record = smallRecord(4);
    srv::ChallengeGenerator gen(Rng(6));
    Rng rng(7);
    std::set<Pair> oracle;
    for (int i = 0; i < 16; ++i) {
        recordPairs(record, gen.generate(record, 720, 63), false, oracle);
        recordPairs(record, gen.generateMultiLevel(record, 32, rng), false,
                    oracle);
    }
    srv::EnrollmentDatabase db;
    db.enroll(record);
    auto restored = srv::loadDatabase(srv::saveDatabase(db));
    srv::DeviceRecord &decoded = restored.at(record.deviceId());
    EXPECT_EQ(decoded.remainingPairs(720), record.remainingPairs(720));
    EXPECT_EQ(decoded.remainingPairs(700, 720),
              record.remainingPairs(700, 720));
    Rng rng_copy = rng;
    EXPECT_EQ(gen.generateMultiLevel(decoded, 64, rng).challenge.bits,
              gen.generateMultiLevel(record, 64, rng_copy).challenge.bits);
    EXPECT_EQ(gen.generate(decoded, 720, 64).challenge.bits,
              gen.generate(record, 720, 64).challenge.bits);
    drainLevel(decoded, 720, false, 64, oracle);
}

TEST(PairStream, ExhaustionThrowsExactlyAtN)
{
    auto record = smallRecord(5);
    srv::ChallengeGenerator gen(Rng(8));
    for (std::uint64_t issued = 0; issued < 2016; issued += 32) {
        ASSERT_EQ(record.remainingPairs(700), 2016 - issued);
        gen.generate(record, 700, 32);
    }
    ASSERT_EQ(record.remainingPairs(700), 0u);
    try {
        gen.generate(record, 700, 1);
        FAIL() << "draw past N did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "ChallengeGenerator: fresh pair supply exhausted");
    }
    // A challenge larger than what is left fails whole: nothing of
    // the 690 stream is retired.
    gen.generateReserved(record, 690, 2000);
    EXPECT_THROW(gen.generateReserved(record, 690, 17), std::runtime_error);
    EXPECT_EQ(record.remainingPairs(690), 16u);
}

namespace {

struct RecordingSink : proto::ReplySink
{
    std::vector<proto::Message> sent;
    void send(const proto::Message &m) override { sent.push_back(m); }
};

/** A small record with fewer than @p left pairs remaining at 700. */
srv::DeviceRecord
nearlySpentRecord(std::uint64_t id, std::uint64_t left)
{
    Rng rng(id);
    srv::DeviceRecord record(
        id, authenticache::mc::randomErrorMap(kSmall, 700, 6, rng), {700},
        {});
    srv::ChallengeGenerator gen(Rng(9));
    gen.generate(record, 700, 2016 - left);
    return record;
}

bool
isError(const proto::Message &m)
{
    return std::holds_alternative<proto::ErrorMsg>(m);
}

} // namespace

TEST(PairStream, AuthAtExhaustionTakesErrorReply)
{
    srv::ServerConfig cfg; // 128-bit challenges.
    srv::AuthenticationServer server(cfg, 0xE1);
    server.enrollRecord(nearlySpentRecord(1, 127));
    RecordingSink sink;
    std::vector<srv::Frame> frames = {
        srv::Frame{proto::encodeMessage(proto::AuthRequest{1}), &sink}};
    authenticache::util::ThreadPool pool(1);
    server.handleBatch(frames, pool);
    ASSERT_EQ(sink.sent.size(), 1u);
    ASSERT_TRUE(isError(sink.sent[0]));
    EXPECT_NE(std::get<proto::ErrorMsg>(sink.sent[0]).reason.find(
                  "exhausted"),
              std::string::npos);
    EXPECT_EQ(server.database().at(1).remainingPairs(700), 127u);
}

TEST(PairStream, HeartbeatAtExhaustionTearsDown)
{
    // 64-bit rounds with 100 pairs left: the first round opens the
    // session, the second cannot be drawn and ends it.
    srv::ServerConfig cfg;
    cfg.sessionShards = 1;
    cfg.trust.failPenalty = 0;
    cfg.trust.periodSteps = 1;
    srv::AuthenticationServer server(cfg, 0xE2);
    authenticache::util::SimClock clock;
    server.bindClock(&clock);
    server.enrollRecord(nearlySpentRecord(2, 100));

    RecordingSink sink;
    server.startHeartbeat(2, sink);
    ASSERT_EQ(sink.sent.size(), 1u);
    ASSERT_TRUE(std::holds_alternative<proto::Heartbeat>(sink.sent[0]));
    EXPECT_EQ(server.sessions().activeHeartbeats(), 1u);

    sink.sent.clear();
    clock.advance();
    ASSERT_NO_THROW(server.tickHeartbeats(sink));
    ASSERT_EQ(sink.sent.size(), 1u);
    ASSERT_TRUE(isError(sink.sent[0]));
    EXPECT_EQ(server.sessions().activeHeartbeats(), 0u);
    EXPECT_EQ(server.database().at(2).remainingPairs(700), 36u);
}

TEST(PairStream, RecordCopyIsIndependent)
{
    auto original = smallRecord(6);
    srv::ChallengeGenerator gen(Rng(10));
    gen.generate(original, 700, 50);
    auto copy = original;
    gen.generate(copy, 700, 450);
    gen.generateReserved(copy, 690, 5);
    EXPECT_EQ(original.consumedCount(700), 50u);
    EXPECT_EQ(original.consumedCount(690), 0u);
    EXPECT_EQ(copy.consumedCount(700), 500u);

    // The original continues its own stream: its next pairs are the
    // copy's 51st onward.
    auto fresh = smallRecord(6);
    gen.generate(fresh, 700, 50);
    EXPECT_EQ(gen.generate(original, 700, 20).challenge.bits,
              gen.generate(fresh, 700, 20).challenge.bits);
}

TEST(PairStream, RemainingPairsArithmetic)
{
    auto record = smallRecord(7);
    srv::ChallengeGenerator gen(Rng(11));
    Rng rng(12);
    EXPECT_EQ(record.remainingPairs(700), 2016u);
    EXPECT_EQ(record.remainingPairs(700, 710), 4096u);
    EXPECT_EQ(record.remainingPairs(710, 700), 4096u);
    EXPECT_EQ(record.streamDomain(690, 700), 0u); // Reserved: no mix.
    EXPECT_EQ(record.remainingPairs(650), 0u);    // No such level.
    gen.generate(record, 700, 300);
    EXPECT_EQ(record.remainingPairs(700), 2016u - 300u);
    auto g = gen.generateMultiLevel(record, 256, rng);
    std::uint64_t issued = 0;
    for (const auto &c : g.retired)
        issued += c.counter;
    std::uint64_t left = 0;
    for (core::VddMv a : {700u, 710u, 720u})
        for (core::VddMv b : {700u, 710u, 720u})
            left += a <= b ? record.remainingPairs(a, b) : 0;
    EXPECT_EQ(left, 3u * 2016u + 3u * 4096u - 256u - 300u);
    EXPECT_EQ(issued, 256u + 300u); // Counters after, 700 included.
}

// ---------------------------------------------------------------
// GeneratorStats: challenge content is pinned to distributions, not
// bits. Endpoint usage and orientation, the Eq 5/6 quality bands of
// Experiments.AliasingAndUniformityNearIdeal, and a model-building
// eavesdropper's held-out accuracy at the Fig 16 quick budget.
// ---------------------------------------------------------------

TEST(GeneratorStats, EndpointUsageUniformAndOrientationHalf)
{
    // 8192 logical endpoints over 1024 lines per device: chi-square
    // with 1023 degrees of freedom (mean 1023, sd ~45), and A before
    // B in line order ~1/2 of 4096 pairs (sd ~0.008).
    const sim::CacheGeometry geom(64 * 1024);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng maprng(seed);
        auto map = authenticache::mc::randomErrorMap(geom, 700, 40, maprng);
        srv::DeviceRecord record(seed, std::move(map), {700}, {});
        record.setPairSeed(srv::PairSeed{maprng.next(), maprng.next()});
        record.setMapKey(keyFrom("stats" + std::to_string(seed)));
        srv::ChallengeGenerator gen(Rng(seed + 10));
        std::vector<std::uint64_t> uses(geom.lines(), 0);
        std::uint64_t a_lower = 0, pairs = 0;
        for (int c = 0; c < 64; ++c) {
            for (const auto &bit : gen.generate(record, 700, 64).challenge.bits) {
                auto ia = geom.lineIndex(bit.a.line);
                auto ib = geom.lineIndex(bit.b.line);
                ++uses[ia];
                ++uses[ib];
                a_lower += ia < ib;
                ++pairs;
            }
        }
        const double expect = 2.0 * static_cast<double>(pairs) /
                              static_cast<double>(geom.lines());
        double chi2 = 0;
        for (auto u : uses)
            chi2 += (static_cast<double>(u) - expect) *
                    (static_cast<double>(u) - expect) / expect;
        EXPECT_LT(chi2, 1023.0 + 5 * 45.0) << "seed " << seed;
        EXPECT_GT(chi2, 1023.0 - 5 * 45.0) << "seed " << seed;
        EXPECT_NEAR(static_cast<double>(a_lower) /
                        static_cast<double>(pairs),
                    0.5, 0.04)
            << "seed " << seed;
    }
}

TEST(GeneratorStats, UniformityAndAliasingAcrossDevices)
{
    // 30 chips answer the same issued challenges (same pair seed,
    // identity key): 31 x 64 bits each, 10 errors in a 256 KiB plane.
    const sim::CacheGeometry geom(256 * 1024);
    std::vector<authenticache::util::BitVec> responses;
    for (std::uint64_t chip = 0; chip < 30; ++chip) {
        Rng maprng(100 + chip);
        auto map = authenticache::mc::randomErrorMap(geom, 700, 10, maprng);
        srv::DeviceRecord record(chip, std::move(map), {700}, {});
        record.setPairSeed(srv::PairSeed{0xA11A5, 0x5EED});
        srv::ChallengeGenerator gen(Rng(7));
        authenticache::util::BitVec all;
        for (int c = 0; c < 31; ++c) {
            auto g = gen.generate(record, 700, 64);
            for (std::size_t i = 0; i < g.expected.size(); ++i)
                all.pushBack(g.expected.get(i));
        }
        responses.push_back(all);
    }
    const auto aliasing = authenticache::metrics::bitAliasing(responses);
    double mean_aliasing = 0;
    for (double a : aliasing)
        mean_aliasing += a / static_cast<double>(aliasing.size());
    EXPECT_NEAR(mean_aliasing, 50.0, 2.5);
    EXPECT_LE(mean_aliasing, 51.0);
    EXPECT_NEAR(authenticache::metrics::uniformity(responses), 50.0, 2.5);
}

TEST(GeneratorStats, ModelAttackOnIssuedChallenges)
{
    // The eavesdropper trains the Fig 16 model on the logical bits
    // and responses one device is issued (the quick budget: 40 000
    // bits of a 4 MiB cache with 100 errors), then predicts the next
    // 4 032 issued bits. Recorded with the consumed-set generator
    // (uniform random pairs, redraw on reuse) on these seeds:
    // 0.8289, 0.8279, 0.8291 (over seeds 1-12: mean 0.832, max
    // 0.843). The bound allows ~4 sigma of the held-out estimate
    // above the highest of the three.
    constexpr double kParentAccuracy = 0.8291;
    constexpr double kBound = kParentAccuracy + 0.032;
    const sim::CacheGeometry geom(4ull * 1024 * 1024);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng maprng(0xA77AC + seed);
        auto map = authenticache::mc::randomErrorMap(geom, 700, 100, maprng);
        srv::DeviceRecord record(seed, std::move(map), {700}, {});
        record.setPairSeed(srv::PairSeed{maprng.next(), maprng.next()});
        record.setMapKey(keyFrom("attack" + std::to_string(seed)));
        srv::ChallengeGenerator gen(Rng(seed + 30));
        authenticache::attack::DistanceFieldModel model(geom);
        for (int c = 0; c < 625; ++c) {
            auto g = gen.generate(record, 700, 64);
            for (std::size_t i = 0; i < g.challenge.size(); ++i)
                model.train(g.challenge.bits[i], g.expected.get(i));
        }
        std::vector<core::ChallengeBit> held;
        std::vector<bool> truth;
        for (int c = 0; c < 63; ++c) {
            auto g = gen.generate(record, 700, 64);
            for (std::size_t i = 0; i < g.challenge.size(); ++i) {
                held.push_back(g.challenge.bits[i]);
                truth.push_back(g.expected.get(i));
            }
        }
        const double accuracy = model.accuracy(held, truth);
        EXPECT_LT(accuracy, kBound) << "seed " << seed;
        EXPECT_GT(accuracy, 0.5) << "seed " << seed; // It does learn.
    }
}
