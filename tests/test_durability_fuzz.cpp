/**
 * @file
 * Corruption fuzzing for the durability layer (distinct from the
 * crash sweep: these inputs are *damaged*, not merely torn). Every
 * byte-offset truncation of the newest snapshot must fall back to the
 * previous generation and re-reach the full state; every truncation
 * of the newest journal must recover a clean event-stream prefix; and
 * seeded random bit flips anywhere in the directory must produce a
 * successful recovery or a clean DecodeError/runtime_error -- never a
 * crash, hang, or out-of-bounds access (the CI runs this suite under
 * ASan/UBSan). AUTHENTICACHE_QUICK=1 strides the offset sweeps.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mc/mapgen.hpp"
#include "server/durability.hpp"
#include "server/storage.hpp"
#include "temp_dir.hpp"

namespace srv = authenticache::server;
namespace jnl = authenticache::server::journal;
namespace core = authenticache::core;
namespace sim = authenticache::sim;
namespace proto = authenticache::protocol;
namespace crypto = authenticache::crypto;
namespace fs = std::filesystem;
using authenticache::test::TempDir;
using authenticache::util::Rng;

namespace {

const sim::CacheGeometry kGeom(64 * 1024);

bool
quickMode()
{
    const char *v = std::getenv("AUTHENTICACHE_QUICK");
    return v != nullptr && *v != '\0' && *v != '0';
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
copyDir(const fs::path &from, const fs::path &to)
{
    fs::remove_all(to);
    fs::create_directories(to);
    for (const auto &entry : fs::directory_iterator(from))
        fs::copy_file(entry.path(), to / entry.path().filename());
}

srv::DeviceRecord
makeRecord(std::uint64_t id)
{
    Rng rng(0xF0221);
    core::ErrorMap map =
        authenticache::mc::randomErrorMap(kGeom, 700, 12, rng);
    srv::DeviceRecord record(id, std::move(map), {700}, {});
    record.setMapKey(crypto::Key256::fromDigest(
        crypto::Sha256::hash("fuzz-" + std::to_string(id))));
    return record;
}

/**
 * The shared fixture state: two generations on disk.
 *
 *   snapshot-0 (empty watermark) + journal-0 (10 outcome events)
 *   snapshot-1 (watermark 10)    + journal-1 (3 outcome events)
 *
 * prefixState(n) is the canonical bytes of the database after the
 * first n events -- what recovery must produce for lastSeq == n.
 */
struct Fixture
{
    TempDir dir{"auth_fuzz_template"};
    std::vector<jnl::Event> events;
    srv::EnrollmentDatabase base;

    Fixture()
    {
        base.enroll(makeRecord(7));
        srv::EnrollmentDatabase live;
        live.enroll(makeRecord(7));

        srv::DurabilityConfig cfg{dir.str(), 0};
        srv::DurabilityManager mgr(cfg, live, 0);
        auto push = [&](bool accepted) {
            jnl::Event e = jnl::AuthOutcome{7, accepted, false};
            mgr.append(e);
            jnl::applyEvent(live, e);
            events.push_back(e);
        };
        for (int k = 0; k < 10; ++k)
            push(k % 3 != 0);
        mgr.sync();
        mgr.rotate(live);
        for (int k = 0; k < 3; ++k)
            push(k == 1);
        mgr.sync();
    }

    std::vector<std::uint8_t>
    prefixState(std::uint64_t n) const
    {
        srv::EnrollmentDatabase db;
        db.enroll(makeRecord(7));
        for (std::uint64_t i = 0; i < n && i < events.size(); ++i)
            jnl::applyEvent(db, events[i]);
        return srv::saveDatabase(db);
    }
};

Fixture &
fixture()
{
    static Fixture fx;
    return fx;
}

} // namespace

TEST(DurabilityFuzz, TruncatedNewestSnapshotFallsBack)
{
    Fixture &fx = fixture();
    TempDir work("auth_fuzz_snap");
    srv::DurabilityConfig cfg{work.str(), 0};
    auto snap = srv::DurabilityManager::snapshotPath(work.str(), 1);

    copyDir(fx.dir.path, work.path);
    auto full = readFile(snap);
    const auto want = fx.prefixState(13);
    const std::size_t stride = quickMode() ? 9 : 1;

    for (std::size_t cut = 0; cut < full.size(); cut += stride) {
        copyDir(fx.dir.path, work.path);
        auto torn = full;
        torn.resize(cut);
        writeFile(snap, torn);

        // The damaged newest snapshot is skipped; generation 0 plus
        // the retained journal chain re-reaches the identical state.
        auto rec = srv::DurabilityManager::recover(cfg);
        EXPECT_EQ(rec.snapshotFallbacks, 1u) << "cut " << cut;
        EXPECT_EQ(rec.generation, 0u) << "cut " << cut;
        EXPECT_EQ(rec.lastSeq, 13u) << "cut " << cut;
        EXPECT_EQ(srv::saveDatabase(rec.db), want) << "cut " << cut;
    }
}

TEST(DurabilityFuzz, TruncatedNewestJournalRecoversPrefix)
{
    Fixture &fx = fixture();
    TempDir work("auth_fuzz_jrnl");
    srv::DurabilityConfig cfg{work.str(), 0};
    auto jpath = srv::DurabilityManager::journalPath(work.str(), 1);

    copyDir(fx.dir.path, work.path);
    auto full = readFile(jpath);
    const std::size_t stride = quickMode() ? 5 : 1;

    for (std::size_t cut = 0; cut < full.size(); cut += stride) {
        copyDir(fx.dir.path, work.path);
        auto torn = full;
        torn.resize(cut);
        writeFile(jpath, torn);

        auto rec = srv::DurabilityManager::recover(cfg);
        // Snapshot 1 carries watermark 10; the torn journal yields
        // some durable prefix of the remaining events.
        EXPECT_GE(rec.lastSeq, 10u) << "cut " << cut;
        EXPECT_LE(rec.lastSeq, 13u) << "cut " << cut;
        EXPECT_EQ(srv::saveDatabase(rec.db),
                  fx.prefixState(rec.lastSeq))
            << "cut " << cut;

        // Idempotent after the truncation pass.
        auto again = srv::DurabilityManager::recover(cfg);
        EXPECT_EQ(again.lastSeq, rec.lastSeq) << "cut " << cut;
        EXPECT_FALSE(again.tornTailTruncated) << "cut " << cut;
    }
}

TEST(DurabilityFuzz, SeededBitFlipsNeverCrash)
{
    Fixture &fx = fixture();
    TempDir work("auth_fuzz_flip");
    srv::DurabilityConfig cfg{work.str(), 0};

    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(fx.dir.path))
        names.push_back(entry.path().filename().string());
    ASSERT_EQ(names.size(), 4u);

    Rng rng(0xB17F11B);
    const int trials = quickMode() ? 40 : 200;
    for (int trial = 0; trial < trials; ++trial) {
        copyDir(fx.dir.path, work.path);
        // 1-3 bit flips spread over the directory's files.
        const int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            const std::string &name =
                names[rng.nextBelow(names.size())];
            auto bytes = readFile(work.str() + "/" + name);
            if (bytes.empty())
                continue;
            std::size_t at = rng.nextBelow(bytes.size());
            bytes[at] ^= static_cast<std::uint8_t>(
                1u << rng.nextBelow(8));
            writeFile(work.str() + "/" + name, bytes);
        }
        // Any outcome is acceptable except a crash or an unexpected
        // exception type: recovery either succeeds (possibly via
        // fallback or truncation) or reports clean corruption.
        try {
            auto rec = srv::DurabilityManager::recover(cfg);
            EXPECT_LE(rec.lastSeq, 13u) << "trial " << trial;
        } catch (const std::runtime_error &) {
            // DecodeError or I/O failure: clean rejection.
        }
    }
}

TEST(DurabilityFuzz, AllSnapshotsCorruptRejected)
{
    Fixture &fx = fixture();
    TempDir work("auth_fuzz_allbad");
    srv::DurabilityConfig cfg{work.str(), 0};
    copyDir(fx.dir.path, work.path);
    for (std::uint64_t g : {0, 1}) {
        auto path =
            srv::DurabilityManager::snapshotPath(work.str(), g);
        auto bytes = readFile(path);
        bytes[bytes.size() / 2] ^= 0x5A;
        writeFile(path, bytes);
    }
    EXPECT_THROW(srv::DurabilityManager::recover(cfg),
                 proto::DecodeError);
}
