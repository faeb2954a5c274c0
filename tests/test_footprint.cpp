/**
 * @file
 * Heap footprint floors for the server's per-device state. The server
 * stores each device's error map instead of a CRP table because the
 * map is compact (paper Sec 2.1, 4.2), so these hold that compactness
 * to a ratcheted ceiling: glibc mallinfo2() in-use bytes, averaged
 * over many records of one challenge level with 40 errors, at 1024
 * lines and, for the keyed view, also at the shipped configs' 65 536.
 * The cases need glibc's allocator and skip under a sanitizer, whose
 * allocator glibc's counters do not see.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "crypto/sha256.hpp"
#include "mc/mapgen.hpp"
#include "server/challenge_gen.hpp"
#include "server/database.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AUTH_FOOTPRINT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
#define AUTH_FOOTPRINT_SANITIZED 1
#endif
#endif

namespace core = authenticache::core;
namespace crypto = authenticache::crypto;
namespace srv = authenticache::server;
using authenticache::util::Rng;

namespace {

constexpr std::size_t kRecords = 20000;
constexpr std::size_t kErrors = 40;
constexpr core::VddMv kLevel = 700;
const core::CacheGeometry kGeom(64 * 1024); // 1024 lines.
const core::CacheGeometry kShipped(4 * 1024 * 1024); // 65 536 lines.

/** Heap bytes in use, or 0 where mallinfo2 is unavailable. */
std::size_t
heapInUse()
{
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
    return mallinfo2().uordblks;
#endif
#endif
    return 0;
}

/** Mean heap bytes per record that @p step(record) leaves behind. */
template <typename Step>
std::size_t
bytesPerRecord(std::vector<srv::DeviceRecord> &records, Step step)
{
    const std::size_t before = heapInUse();
    for (auto &record : records)
        step(record);
    return (heapInUse() - before) / records.size();
}

class RecordFootprint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
#if defined(AUTH_FOOTPRINT_SANITIZED)
        GTEST_SKIP() << "sanitizer allocator: mallinfo2 does not see it";
#endif
        if (heapInUse() == 0)
            GTEST_SKIP() << "needs glibc >= 2.33 (mallinfo2)";
    }

    /** kRecords records of one level, each with its own map. */
    static std::vector<srv::DeviceRecord>
    makeRecords(const core::CacheGeometry &geom = kGeom)
    {
        std::vector<srv::DeviceRecord> records;
        records.reserve(kRecords);
        for (std::size_t id = 0; id < kRecords; ++id) {
            Rng rng = Rng::forStream(0xF007, id);
            records.emplace_back(
                id, authenticache::mc::randomErrorMap(geom, kLevel,
                                                      kErrors, rng),
                std::vector<core::VddMv>{kLevel},
                std::vector<core::VddMv>{});
        }
        return records;
    }

    /**
     * Heap bytes per record of a keyed view of @p records' level. The
     * stream exists already; the rotation drops nothing built yet, so
     * the next challenge's bytes are the level's view and its slot.
     */
    std::size_t
    keyedViewBytes(std::vector<srv::DeviceRecord> &records)
    {
        for (auto &record : records)
            gen.generate(record, kLevel, 128);
        for (auto &record : records)
            record.setMapKey(
                crypto::Key256::fromDigest(crypto::Sha256::hash(
                    "footprint-" + std::to_string(record.deviceId()))));
        return bytesPerRecord(records, [&](auto &record) {
            gen.generate(record, kLevel, 128);
        });
    }

    srv::ChallengeGenerator gen{Rng(1)};
};

} // namespace

TEST_F(RecordFootprint, EnrolledRecord)
{
    // Map generation, the record and its database entry.
    srv::EnrollmentDatabase db;
    std::size_t id = 0;
    const std::size_t before = heapInUse();
    for (; id < kRecords; ++id) {
        Rng rng = Rng::forStream(0xF007, id);
        db.enroll(srv::DeviceRecord(
            id, authenticache::mc::randomErrorMap(kGeom, kLevel, kErrors, rng),
            {kLevel}, {}));
    }
    const std::size_t per = (heapInUse() - before) / kRecords;
    RecordProperty("bytes_per_record", static_cast<int>(per));
    EXPECT_LE(per, 590u);
}

TEST_F(RecordFootprint, IdentityKeyFirstChallenge)
{
    // The first challenge creates the level's pair stream; under the
    // identity key it builds no logical view.
    auto records = makeRecords();
    const std::size_t per = bytesPerRecord(records, [&](auto &record) {
        gen.generate(record, kLevel, 128);
    });
    RecordProperty("bytes_per_record", static_cast<int>(per));
    EXPECT_LE(per, 256u);
}

TEST_F(RecordFootprint, KeyedLogicalView)
{
    auto records = makeRecords();
    const std::size_t per = keyedViewBytes(records);
    RecordProperty("bytes_per_record", static_cast<int>(per));
    EXPECT_LE(per, 560u);
}

TEST_F(RecordFootprint, KeyedLogicalViewShippedGeometry)
{
    // At 65 536 lines the round table (6 rounds x 256 one-byte
    // entries) is most of the view.
    auto records = makeRecords(kShipped);
    const std::size_t per = keyedViewBytes(records);
    RecordProperty("bytes_per_record", static_cast<int>(per));
    EXPECT_LE(per, 2040u);
}
