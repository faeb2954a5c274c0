/**
 * @file
 * Google-benchmark microbenchmarks for the performance-critical
 * primitives: SECDED encode/decode, SipHash, SHA-256, the Feistel
 * coordinate permutation, nearest-error search (brute vs spiral),
 * challenge evaluation, and cache line self-tests. The frame codec
 * (wire encode/decode of a challenge, CRC-32) is timed by
 * bench_runner instead.
 */

#include <benchmark/benchmark.h>

#include "core/challenge.hpp"
#include "core/nearest.hpp"
#include "core/remap.hpp"
#include "crypto/feistel.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"
#include "ecc/bch.hpp"
#include "ecc/secded.hpp"
#include "mc/mapgen.hpp"
#include "sim/chip.hpp"
#include "util/rng.hpp"

using namespace authenticache;

namespace {

void
BM_SecdedEncode(benchmark::State &state)
{
    ecc::SecdedCodec codec(64);
    util::Rng rng(1);
    std::uint64_t data = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(data));
        ++data;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeClean(benchmark::State &state)
{
    ecc::SecdedCodec codec(64);
    std::uint64_t data = 0x0123456789ABCDEFull;
    std::uint32_t check = codec.encode(data);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(data, check));
}
BENCHMARK(BM_SecdedDecodeClean);

void
BM_SecdedDecodeCorrect(benchmark::State &state)
{
    ecc::SecdedCodec codec(64);
    std::uint64_t data = 0x0123456789ABCDEFull;
    std::uint32_t check = codec.encode(data);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.decode(data ^ 0x10, check));
}
BENCHMARK(BM_SecdedDecodeCorrect);

void
BM_BchEncode(benchmark::State &state)
{
    ecc::BchCode code(7, 10);
    util::Rng rng(77);
    util::BitVec message(code.k());
    for (std::size_t i = 0; i < message.size(); ++i)
        message.set(i, rng.nextBool());
    for (auto _ : state)
        benchmark::DoNotOptimize(code.encode(message));
}
BENCHMARK(BM_BchEncode);

void
BM_BchDecode(benchmark::State &state)
{
    ecc::BchCode code(7, 10);
    util::Rng rng(78);
    util::BitVec message(code.k());
    for (std::size_t i = 0; i < message.size(); ++i)
        message.set(i, rng.nextBool());
    auto codeword = code.encode(message);
    auto corrupted = codeword;
    for (auto pos : rng.sampleDistinct(
             code.n(), static_cast<std::size_t>(state.range(0))))
        corrupted.flip(pos);
    for (auto _ : state)
        benchmark::DoNotOptimize(code.decode(corrupted));
}
BENCHMARK(BM_BchDecode)->Arg(0)->Arg(5)->Arg(10);

void
BM_SipHash64(benchmark::State &state)
{
    crypto::SipHashKey key{1, 2};
    std::uint64_t word = 42;
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::siphash24(key, word));
        ++word;
    }
}
BENCHMARK(BM_SipHash64);

void
BM_Sha256_1KiB(benchmark::State &state)
{
    std::vector<std::uint8_t> data(1024, 0xAB);
    for (auto _ : state)
        benchmark::DoNotOptimize(crypto::Sha256::hash(data));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void
BM_FeistelMap(benchmark::State &state)
{
    crypto::FeistelPermutation perm(crypto::SipHashKey{3, 4},
                                    65536ull * 8);
    std::uint64_t x = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(perm.map(x));
        x = (x + 1) % perm.domain();
    }
}
BENCHMARK(BM_FeistelMap);

void
BM_NearestBrute(benchmark::State &state)
{
    const sim::CacheGeometry geom(4ull * 1024 * 1024);
    util::Rng rng(5);
    auto plane = mc::randomPlane(
        geom, static_cast<std::size_t>(state.range(0)), rng);
    sim::LinePoint p{1234, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(core::nearestErrorBrute(plane, p));
}
BENCHMARK(BM_NearestBrute)->Arg(20)->Arg(100)->Arg(500)->Arg(2000);

void
BM_SpiralSearchIdealProbe(benchmark::State &state)
{
    const sim::CacheGeometry geom(4ull * 1024 * 1024);
    util::Rng rng(6);
    auto plane = mc::randomPlane(
        geom, static_cast<std::size_t>(state.range(0)), rng);
    auto probe = [&](const sim::LinePoint &cell) {
        return plane.contains(cell);
    };
    sim::LinePoint p{1234, 3};
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::spiralSearch(
            geom, p, core::maxSearchRadius(geom), probe));
    }
}
BENCHMARK(BM_SpiralSearchIdealProbe)->Arg(20)->Arg(100);

void
BM_ChallengeEvaluate512(benchmark::State &state)
{
    const sim::CacheGeometry geom(4ull * 1024 * 1024);
    util::Rng rng(7);
    auto map = mc::randomErrorMap(geom, 700, 100, rng);
    auto challenge = core::randomChallenge(geom, 700, 512, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::evaluate(map, challenge));
}
BENCHMARK(BM_ChallengeEvaluate512);

void
BM_LogicalRemapMap(benchmark::State &state)
{
    const sim::CacheGeometry geom(4ull * 1024 * 1024);
    crypto::Key256 key = crypto::Key256::fromDigest(
        crypto::Sha256::hash(std::string("bench")));
    core::LogicalRemap remap(key, geom);
    sim::LinePoint p{100, 2};
    // Warm the per-level permutation cache.
    benchmark::DoNotOptimize(remap.map(p, 700));
    for (auto _ : state)
        benchmark::DoNotOptimize(remap.map(p, 700));
}
BENCHMARK(BM_LogicalRemapMap);

void
BM_CacheLineSelfTest(benchmark::State &state)
{
    sim::ChipConfig cfg;
    cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(cfg, 8);
    chip.setVddMv(chip.vminField().vcorrMv() - 30.0);
    sim::LinePoint p{100, 2};
    for (auto _ : state)
        benchmark::DoNotOptimize(chip.selfTest().testLine(p, 1));
}
BENCHMARK(BM_CacheLineSelfTest);

void
BM_BitVecHamming512(benchmark::State &state)
{
    util::Rng rng(10);
    util::BitVec a(512);
    util::BitVec b(512);
    for (std::size_t i = 0; i < 512; ++i) {
        a.set(i, rng.nextBool());
        b.set(i, rng.nextBool());
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(a.hammingDistance(b));
}
BENCHMARK(BM_BitVecHamming512);

} // namespace

BENCHMARK_MAIN();
