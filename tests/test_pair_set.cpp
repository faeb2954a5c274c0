/**
 * @file
 * Tests for the consumed-pair store: the flat set itself (duplicates,
 * key 0, growth, sorted export) and the DeviceRecord surface built on
 * it (copy independence, remaining-pair arithmetic).
 */

#include <set>

#include <gtest/gtest.h>

#include "core/crp.hpp"
#include "mc/mapgen.hpp"
#include "server/database.hpp"
#include "server/pair_set.hpp"
#include "util/rng.hpp"

namespace srv = authenticache::server;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
using authenticache::util::Rng;

namespace {

srv::DeviceRecord
sampleRecord()
{
    Rng rng(3);
    const sim::CacheGeometry geom(64 * 1024);
    return srv::DeviceRecord(
        1, authenticache::mc::randomErrorMap(geom, 700, 20, rng), {700},
        {690});
}

} // namespace

TEST(PairSet, InsertContainsDuplicate)
{
    srv::PairSet set;
    EXPECT_FALSE(set.contains(42));
    EXPECT_EQ(set.size(), 0u);
    EXPECT_TRUE(set.insert(42));
    EXPECT_TRUE(set.contains(42));
    EXPECT_FALSE(set.insert(42));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_FALSE(set.contains(43));
}

TEST(PairSet, KeyZeroIsStoredNotDropped)
{
    srv::PairSet set;
    EXPECT_FALSE(set.contains(0));
    EXPECT_TRUE(set.insert(0));
    EXPECT_TRUE(set.contains(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.insert(7));
    EXPECT_EQ(set.size(), 2u);
    EXPECT_EQ(set.sortedKeys(), (std::vector<std::uint64_t>{0, 7}));
}

TEST(PairSet, GrowsAcrossResizesAgainstOracle)
{
    // Pair-shaped keys ((lo << 32) | hi) over a small line range, so
    // many keys share a half; 20k keys take the table from 16 slots
    // through a dozen doublings.
    srv::PairSet set;
    std::set<std::uint64_t> oracle;
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t lo = rng.nextBelow(4096);
        std::uint64_t hi = rng.nextBelow(4096);
        std::uint64_t key = (lo << 32) | hi;
        EXPECT_EQ(set.insert(key), oracle.insert(key).second);
        ASSERT_EQ(set.size(), oracle.size());
    }
    for (std::uint64_t key : oracle)
        ASSERT_TRUE(set.contains(key));
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t key =
            (rng.nextBelow(4096) << 32) | rng.nextBelow(4096);
        ASSERT_EQ(set.contains(key), oracle.count(key) == 1);
    }
    EXPECT_EQ(set.sortedKeys(),
              std::vector<std::uint64_t>(oracle.begin(), oracle.end()));
}

TEST(PairSet, ReserveKeepsContents)
{
    srv::PairSet set;
    for (std::uint64_t k = 1; k <= 100; ++k)
        set.insert(k * 977);
    set.reserve(5000);
    set.reserve(10); // Never shrinks.
    EXPECT_EQ(set.size(), 100u);
    for (std::uint64_t k = 1; k <= 100; ++k)
        EXPECT_TRUE(set.contains(k * 977));
    EXPECT_FALSE(set.contains(976));
}

TEST(PairSet, RecordCopyIsIndependent)
{
    srv::DeviceRecord original = sampleRecord();
    for (std::uint64_t k = 0; k < 50; ++k)
        original.consumePair(700, k, k + 1000);

    srv::DeviceRecord copy = original;
    for (std::uint64_t k = 50; k < 500; ++k)
        copy.consumePair(700, k, k + 1000);
    EXPECT_TRUE(copy.consumePair(690, 1, 2));

    EXPECT_EQ(original.consumedCount(700), 50u);
    EXPECT_EQ(original.consumedCount(690), 0u);
    EXPECT_TRUE(original.pairAvailable(700, 60, 1060));
    EXPECT_TRUE(original.pairAvailable(690, 2, 1));
    EXPECT_EQ(copy.consumedCount(700), 500u);
    EXPECT_FALSE(copy.pairAvailable(700, 1060, 60));

    // And the other way: the original's later retirements stay put.
    EXPECT_TRUE(original.consumePair(700, 7, 8));
    EXPECT_TRUE(copy.pairAvailable(700, 7, 8));
}

TEST(PairSet, RemainingPairsArithmetic)
{
    srv::DeviceRecord record = sampleRecord();
    const std::uint64_t total =
        core::possibleCrps(record.physicalMap().geometry().lines());
    EXPECT_EQ(record.remainingPairs(700), total);
    EXPECT_EQ(record.remainingPairs(690), total);

    for (std::uint64_t k = 0; k < 300; ++k)
        record.consumePair(700, k, k + 1);
    EXPECT_EQ(record.remainingPairs(700), total - 300);
    // Re-retiring, in either order, takes nothing further.
    for (std::uint64_t k = 0; k < 300; ++k)
        EXPECT_FALSE(record.consumePair(700, k + 1, k));
    EXPECT_EQ(record.remainingPairs(700), total - 300);

    // The degenerate pair {0, 0} (key 0) is reachable only through a
    // replayed journal or a decoded snapshot; it still counts once.
    EXPECT_TRUE(record.pairAvailable(700, 0, 0));
    EXPECT_TRUE(record.consumePair(700, 0, 0));
    EXPECT_FALSE(record.consumePair(700, 0, 0));
    EXPECT_FALSE(record.pairAvailable(700, 0, 0));
    EXPECT_EQ(record.consumedCount(700), 301u);
    EXPECT_EQ(record.remainingPairs(700), total - 301);
    EXPECT_EQ(record.remainingPairs(690), total);
}
