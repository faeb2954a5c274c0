/**
 * @file
 * Perf-trajectory runner: machine-readable benchmark results for the
 * regression gate (EXPERIMENTS.md "Perf trajectory").
 *
 * Emits two JSON files (default: current directory):
 *
 *  - BENCH_hotpath.json -- microkernel numbers at every supported
 *    SIMD width: the SECDED batch encode/decode kernels and 64-bit
 *    challenge evaluation through the server's query-major plane scan
 *    (core::evaluate). Per-op p50/p99 latency plus ops/s, and derived
 *    hardware-independent ratios (SIMD speedup over scalar, the
 *    median over interleaved passes). Also scalar primitives: the
 *    frame codec (wire encode and decode of a 128-bit challenge,
 *    CRC-32 over 4 KiB), SipHash-2-4 of a u64, SHA-256 of 1 KiB and
 *    the Feistel coordinate permutation.
 *
 *  - BENCH_server.json -- end-to-end batch front-end throughput
 *    (frames/s, per-batch p50/p99) at several thread counts, with
 *    durability off and on, plus derived ratios (scaling, journaling
 *    overhead).
 *
 *  tools/bench_compare.py diffs a fresh run against the checked-in
 *  baselines and fails on regression; CI runs it in --ratios-only
 *  mode so the gate is hardware-independent.
 *
 * Flags: --out-dir <dir>, --hotpath-only, --server-only, --smoke
 * (or AUTHENTICACHE_QUICK=1) for a fast CI run.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/challenge.hpp"
#include "core/remap.hpp"
#include "crypto/feistel.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"
#include "ecc/secded.hpp"
#include "mc/mapgen.hpp"
#include "net/wire.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace authenticache;

namespace {

using authbench::Clock;
using authbench::Json;
using authbench::nsSince;
using authbench::percentile;

/** One benchmark row: throughput plus latency percentiles. */
struct Series
{
    std::string name;
    std::string simd;
    double opsPerS = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t ops = 0;
};

Series
makeSeries(const std::string &name, const std::string &simd,
           std::uint64_t ops_per_sample, std::vector<double> samples)
{
    Series s;
    s.name = name;
    s.simd = simd;
    s.ops = ops_per_sample * samples.size();
    double total_ns = 0.0;
    for (double v : samples)
        total_ns += v;
    s.opsPerS = total_ns > 0.0
                    ? static_cast<double>(s.ops) / (total_ns * 1e-9)
                    : 0.0;
    // Percentiles are per *sample*; divide by ops_per_sample for a
    // per-op figure where a sample batches many ops.
    s.p50Ns = percentile(samples, 0.50) /
              static_cast<double>(ops_per_sample);
    s.p99Ns = percentile(samples, 0.99) /
              static_cast<double>(ops_per_sample);
    return s;
}

void
writeSeries(Json &j, const Series &s)
{
    j.openObject();
    j.field("name", s.name);
    j.field("simd", s.simd);
    j.field("ops", s.ops);
    j.field("ops_per_s", s.opsPerS);
    j.field("p50_ns", s.p50Ns);
    j.field("p99_ns", s.p99Ns);
    j.closeObject();
}

// ---------------------------------------------------------------
// Hot-path microkernels.
// ---------------------------------------------------------------

struct HotpathResult
{
    std::vector<Series> series;
    std::map<std::string, double> derived;
};

/** Median of @p v (upper middle for an even count). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
}

/**
 * The frame codec, which is scalar code at every dispatch width: the
 * wire encode and the client-side decode (WireDecoder + decodeMessage)
 * of the 128-bit ChallengeMsg the server sends per auth, and CRC-32
 * over 4 KiB. Each sample times a batch of ops.
 */
void
runFrameCodec(bool quick, const core::CacheGeometry &geom,
              core::VddMv level_mv, util::Rng &rng,
              std::vector<Series> &series)
{
    const protocol::ChallengeMsg msg{
        rng.next(), core::randomChallenge(geom, level_mv, 128, rng)};
    const auto frame = net::encodeWireMessage(1, msg);
    std::vector<std::uint8_t> block(4096);
    for (auto &b : block)
        b = static_cast<std::uint8_t>(rng.next());
    const std::uint32_t block_crc = util::crc32(block);

    auto decode = [&frame] {
        net::WireDecoder dec;
        dec.feed(frame);
        return protocol::decodeMessage(dec.next()->payload);
    };
    const protocol::Message first = decode();
    const auto *back = std::get_if<protocol::ChallengeMsg>(&first);
    if (back == nullptr || back->challenge.bits != msg.challenge.bits) {
        std::cerr << "FAIL: challenge frame did not round-trip\n";
        std::exit(1);
    }

    constexpr std::size_t kBatch = 64;
    const std::size_t samples = quick ? 40 : 400;
    // Every timed result is checked, which also keeps it live.
    std::vector<double> enc_ns, dec_ns, crc_ns;
    std::size_t wrong = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < kBatch; ++i)
            wrong += net::encodeWireMessage(1, msg) != frame;
        enc_ns.push_back(nsSince(t0));
        t0 = Clock::now();
        for (std::size_t i = 0; i < kBatch; ++i)
            wrong += std::get<protocol::ChallengeMsg>(decode()).nonce !=
                     msg.nonce;
        dec_ns.push_back(nsSince(t0));
        t0 = Clock::now();
        for (std::size_t i = 0; i < kBatch; ++i)
            wrong += util::crc32(block) != block_crc;
        crc_ns.push_back(nsSince(t0));
    }
    if (wrong != 0) {
        std::cerr << "FAIL: frame codec diverged " << wrong
                  << " times\n";
        std::exit(1);
    }

    const std::string scalar =
        util::simdLevelName(util::SimdLevel::Scalar);
    series.push_back(makeSeries("challenge_wire_encode_128bit", scalar,
                                kBatch, std::move(enc_ns)));
    series.push_back(makeSeries("challenge_wire_decode_128bit", scalar,
                                kBatch, std::move(dec_ns)));
    series.push_back(
        makeSeries("crc32_4kib", scalar, kBatch, std::move(crc_ns)));
}

/**
 * The hash and permutation primitives, scalar at every width:
 * SipHash-2-4 of a u64 (the Feistel round function), SHA-256 of
 * 1 KiB, and FeistelPermutation::map over a 2^19-entry domain. Each
 * sample times a batch over the same inputs; every batch must fold
 * to the untimed reference, which also keeps the results live.
 */
void
runCrypto(bool quick, std::vector<Series> &series)
{
    const crypto::SipHashKey key{3, 4};
    const crypto::FeistelPermutation perm(key, 65536ull * 8);
    const std::vector<std::uint8_t> block(1024, 0xAB);

    constexpr std::size_t kBatch = 64;
    auto sip = [&key] {
        std::uint64_t acc = 0;
        for (std::uint64_t w = 0; w < kBatch; ++w)
            acc ^= crypto::siphash24(key, w);
        return acc;
    };
    auto sha = [&block] {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < kBatch / 8; ++i)
            acc += crypto::Sha256::hash(block)[i];
        return acc;
    };
    auto feistel = [&perm] {
        std::uint64_t acc = 0;
        for (std::uint64_t x = 0; x < kBatch; ++x)
            acc ^= perm.map(x);
        return acc;
    };
    const std::uint64_t sip_ref = sip(), sha_ref = sha(),
                        feistel_ref = feistel();

    const std::size_t samples = quick ? 40 : 400;
    std::vector<double> sip_ns, sha_ns, feistel_ns;
    std::size_t wrong = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        auto t0 = Clock::now();
        wrong += sip() != sip_ref;
        sip_ns.push_back(nsSince(t0));
        t0 = Clock::now();
        wrong += sha() != sha_ref;
        sha_ns.push_back(nsSince(t0));
        t0 = Clock::now();
        wrong += feistel() != feistel_ref;
        feistel_ns.push_back(nsSince(t0));
    }
    if (wrong != 0) {
        std::cerr << "FAIL: crypto primitives diverged " << wrong
                  << " times\n";
        std::exit(1);
    }

    const std::string scalar =
        util::simdLevelName(util::SimdLevel::Scalar);
    series.push_back(makeSeries("siphash24_u64", scalar, kBatch,
                                std::move(sip_ns)));
    series.push_back(makeSeries("sha256_1kib", scalar, kBatch / 8,
                                std::move(sha_ns)));
    series.push_back(makeSeries("feistel_map", scalar, kBatch,
                                std::move(feistel_ns)));
}

HotpathResult
runHotpath(bool quick)
{
    HotpathResult out;
    util::Rng rng(0xBE7C);
    const auto levels = util::supportedSimdLevels();
    const util::SimdLevel widest = util::detectedSimdLevel();

    // SECDED batch kernels: encode + decode over a word buffer.
    const std::size_t words = quick ? (1u << 14) : (1u << 16);
    const std::size_t reps = quick ? 2 : 4;
    std::vector<std::uint64_t> data(words);
    for (auto &w : data)
        w = rng.next();
    std::vector<std::uint32_t> check(words);
    std::vector<ecc::DecodeResult> dec(words);
    ecc::SecdedCodec codec(64);

    // Challenge evaluation: 64-bit challenges against a 60-error map
    // of a 4MB cache, through the query-major plane scan the server
    // computes expected responses with. Every width must give the
    // scalar responses.
    const core::CacheGeometry geom(4 * 1024 * 1024);
    const core::VddMv level_mv = 700.0;
    core::ErrorMap map = mc::randomErrorMap(geom, level_mv, 60, rng);
    const std::size_t evals = quick ? 200 : 2000;
    std::vector<core::Challenge> challenges;
    std::vector<core::Response> want;
    challenges.reserve(evals);
    want.reserve(evals);
    for (std::size_t i = 0; i < evals; ++i) {
        challenges.push_back(
            core::randomChallenge(geom, level_mv, 64, rng));
        want.push_back(core::evaluate(map, challenges.back(),
                                      util::SimdLevel::Scalar));
    }

    // Each pass times every kernel at every width, one width's block
    // after the other, so a pass's widest/scalar ratio compares
    // steady-state runs made milliseconds apart. A derived ratio is
    // the median of the per-pass ratios; a series pools its samples
    // over all passes.
    constexpr std::size_t kPasses = 7;
    struct Kernel
    {
        std::string name;
        std::uint64_t opsPerSample;
        std::map<util::SimdLevel, std::vector<double>> samples;
        std::map<util::SimdLevel, double> passNs; ///< Current pass.
        std::vector<double> passRatios;

        void
        record(util::SimdLevel level, double ns)
        {
            samples[level].push_back(ns);
            passNs[level] += ns;
        }
    };
    Kernel encode{"secded_encode_batch", words, {}, {}, {}};
    Kernel decode{"secded_decode_batch", words, {}, {}, {}};
    Kernel evaluate{"evaluate_64bit", 1, {}, {}, {}};
    Kernel *const kernels[] = {&encode, &decode, &evaluate};

    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (Kernel *k : kernels)
            k->passNs.clear();
        for (util::SimdLevel level : levels) {
            for (std::size_t r = 0; r < reps; ++r) {
                auto t0 = Clock::now();
                codec.encodeBatch(data.data(), check.data(), words,
                                  level);
                encode.record(level, nsSince(t0));
                t0 = Clock::now();
                codec.decodeBatch(data.data(), check.data(), dec.data(),
                                  words, level);
                decode.record(level, nsSince(t0));
            }
            for (std::size_t i = 0; i < evals; ++i) {
                auto t0 = Clock::now();
                auto resp = core::evaluate(map, challenges[i], level);
                evaluate.record(level, nsSince(t0));
                if (resp != want[i]) {
                    std::cerr << "FAIL: evaluate diverged at "
                              << util::simdLevelName(level) << "\n";
                    std::exit(1);
                }
            }
        }
        // Equal work at every width: the speedup is a time ratio.
        for (Kernel *k : kernels) {
            const double wide = k->passNs[widest];
            k->passRatios.push_back(
                wide > 0.0 ? k->passNs[util::SimdLevel::Scalar] / wide
                           : 0.0);
        }
    }

    for (Kernel *k : kernels) {
        for (util::SimdLevel level : levels)
            out.series.push_back(makeSeries(
                k->name, util::simdLevelName(level), k->opsPerSample,
                std::move(k->samples[level])));
    }
    runFrameCodec(quick, geom, level_mv, rng, out.series);
    runCrypto(quick, out.series);
    out.derived["secded_encode_simd_speedup"] = median(encode.passRatios);
    out.derived["secded_decode_simd_speedup"] = median(decode.passRatios);
    out.derived["evaluate_simd_speedup"] = median(evaluate.passRatios);
    return out;
}

// ---------------------------------------------------------------
// Server batch front end.
// ---------------------------------------------------------------

constexpr core::VddMv kLevel = 700.0;
constexpr std::uint64_t kServerSeed = 0x7B40;

/**
 * One device's reply slot. It encodes every reply, as a transport
 * sink would, so the timed handleBatch work includes the encode.
 */
struct Mailbox : protocol::ReplySink
{
    void
    send(const protocol::Message &m) override
    {
        frames.push_back(protocol::encodeMessage(m));
    }

    std::vector<std::vector<std::uint8_t>> frames;
};

struct Flood
{
    server::ServerConfig cfg;
    server::AuthenticationServer srv;
    std::vector<std::uint64_t> ids;
    std::vector<Mailbox> mail;
    std::optional<server::DurabilityManager> dur;

    explicit Flood(std::size_t n_devices,
                   const std::string &durable_dir = "")
        : cfg([] {
              server::ServerConfig c;
              c.challengeBits = 64;
              c.verifier.pIntra = 0.08;
              c.maxPendingSessions = 1 << 20;
              c.sessionShards = 16;
              return c;
          }()),
          srv(cfg, kServerSeed)
    {
        core::CacheGeometry geom(256 * 1024);
        for (std::size_t i = 0; i < n_devices; ++i) {
            std::uint64_t id = 1000 + i;
            util::Rng mr = util::Rng::forStream(0xBE9C, id);
            srv.database().enroll(server::DeviceRecord(
                id, mc::randomErrorMap(geom, kLevel, 60, mr),
                {kLevel}, {}));
            ids.push_back(id);
        }
        mail.resize(n_devices);
        if (!durable_dir.empty()) {
            dur.emplace(
                server::DurabilityConfig{durable_dir, 4096},
                srv.database());
            srv.attachDurability(&*dur);
        }
    }
};

util::BitVec
honest(const server::DeviceRecord &rec, const core::Challenge &ch)
{
    core::LogicalRemap remap(rec.mapKey(),
                             rec.physicalMap().geometry());
    return core::evaluate(remap.mapErrorMap(rec.physicalMap()), ch);
}

struct ServerRun
{
    Series series;
    std::uint64_t accepted = 0;
};

ServerRun
runServer(std::size_t n_devices, std::size_t rounds, unsigned threads,
          bool durable, const std::string &label)
{
    std::string dur_dir;
    if (durable) {
        dur_dir = (std::filesystem::temp_directory_path() /
                   "authbench_runner_dur")
                      .string();
        std::filesystem::remove_all(dur_dir);
        std::filesystem::create_directories(dur_dir);
    }
    Flood flood(n_devices, dur_dir);
    util::ThreadPool pool(threads);

    std::vector<double> batch_ns;
    std::uint64_t frames = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<server::Frame> batch;
        batch.reserve(n_devices);
        for (std::size_t i = 0; i < n_devices; ++i)
            batch.push_back(server::Frame{
                protocol::encodeMessage(
                    protocol::AuthRequest{flood.ids[i]}),
                &flood.mail[i]});
        auto t0 = Clock::now();
        flood.srv.handleBatch(batch, pool);
        batch_ns.push_back(nsSince(t0));
        frames += batch.size();

        batch.clear();
        for (std::size_t i = 0; i < n_devices; ++i) {
            auto &inbox = flood.mail[i].frames;
            if (inbox.empty())
                continue;
            auto msg = protocol::decodeMessage(inbox.front());
            auto *ch = std::get_if<protocol::ChallengeMsg>(&msg);
            if (!ch)
                continue;
            const auto &rec =
                flood.srv.database().at(flood.ids[i]);
            batch.push_back(server::Frame{
                protocol::encodeMessage(protocol::ResponseMsg{
                    ch->nonce, honest(rec, ch->challenge)}),
                &flood.mail[i]});
        }
        t0 = Clock::now();
        flood.srv.handleBatch(batch, pool);
        batch_ns.push_back(nsSince(t0));
        frames += batch.size();
        for (auto &box : flood.mail)
            box.frames.clear();
    }

    ServerRun out;
    const std::uint64_t per_batch = frames / batch_ns.size();
    out.series = makeSeries(label, util::simdLevelName(
                                       util::simdLevel()),
                            per_batch, std::move(batch_ns));
    // ops == frames exactly (per_batch rounding would distort it).
    out.series.ops = frames;
    for (auto id : flood.ids)
        out.accepted += flood.srv.database().at(id).accepted();
    if (!dur_dir.empty())
        std::filesystem::remove_all(dur_dir);
    return out;
}

struct ServerResult
{
    std::vector<Series> series;
    std::vector<std::uint64_t> threadCounts;
    std::map<std::string, double> derived;
};

ServerResult
runServerSuite(bool quick)
{
    ServerResult out;
    const std::size_t devices = quick ? 32 : 192;
    const std::size_t rounds = quick ? 2 : 5;
    const unsigned hw = util::ThreadPool::defaultThreadCount();
    std::vector<unsigned> widths{1, 4};
    if (hw > 4)
        widths.push_back(hw);

    std::uint64_t accepted_ref = 0;
    double rate_1t = 0.0, rate_hw = 0.0, durable_hw = 0.0;
    for (unsigned w : widths) {
        out.threadCounts.push_back(w);
        auto plain =
            runServer(devices, rounds, w, false,
                      "server_batch_t" + std::to_string(w));
        auto durable =
            runServer(devices, rounds, w, true,
                      "server_batch_durable_t" + std::to_string(w));
        if (w == widths.front())
            accepted_ref = plain.accepted;
        if (plain.accepted != accepted_ref ||
            durable.accepted != accepted_ref) {
            std::cerr << "FAIL: accepted count diverged at " << w
                      << " threads\n";
            std::exit(1);
        }
        if (w == 1)
            rate_1t = plain.series.opsPerS;
        rate_hw = plain.series.opsPerS;
        durable_hw = durable.series.opsPerS;
        out.series.push_back(std::move(plain.series));
        out.series.push_back(std::move(durable.series));
    }
    out.derived["scaling_max_threads_vs_1"] =
        rate_1t > 0.0 ? rate_hw / rate_1t : 0.0;
    out.derived["durable_overhead_ratio"] =
        durable_hw > 0.0 ? rate_hw / durable_hw : 0.0;
    return out;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

void
writeHotpath(const std::string &path, const HotpathResult &r,
             bool quick)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    authbench::writeHeader(j, "authenticache-bench-hotpath-v1", quick);
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        writeSeries(j, s);
    j.closeArray();
    j.openObject("derived");
    for (const auto &[k, v] : r.derived)
        j.field(k, v);
    j.closeObject();
    j.openObject("floors");
    // The acceptance floor the compare script enforces on every run:
    // the widest challenge evaluation must hold >= 2x over scalar.
    j.field("evaluate_simd_speedup", 2.0);
    j.closeObject();
    j.close();
}

void
writeServer(const std::string &path, const ServerResult &r,
            bool quick)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    authbench::writeHeader(j, "authenticache-bench-server-v1", quick);
    j.openArray("thread_counts");
    for (std::uint64_t t : r.threadCounts) {
        j.openObject();
        j.field("threads", t);
        j.closeObject();
    }
    j.closeArray();
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        writeSeries(j, s);
    j.closeArray();
    j.openObject("derived");
    for (const auto &[k, v] : r.derived)
        j.field(k, v);
    j.closeObject();
    j.close();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    bool hotpath = true, server = true, smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out-dir") && i + 1 < argc)
            out_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--hotpath-only"))
            server = false;
        else if (!std::strcmp(argv[i], "--server-only"))
            hotpath = false;
        else if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else {
            std::cerr << "usage: bench_runner [--out-dir D] "
                         "[--hotpath-only|--server-only] [--smoke]\n";
            return 2;
        }
    }
    if (authbench::quickMode())
        smoke = true;

    authbench::banner("Perf-trajectory runner (BENCH_*.json)",
                      "regression gate inputs; see EXPERIMENTS.md "
                      "'Perf trajectory'");

    if (hotpath) {
        authbench::WallTimer t;
        auto r = runHotpath(smoke);
        const std::string path = out_dir + "/BENCH_hotpath.json";
        writeHotpath(path, r, smoke);
        std::cout << "wrote " << path << " ("
                  << r.series.size() << " series, "
                  << t.seconds() << " s)\n";
        for (const auto &[k, v] : r.derived)
            std::cout << "  " << k << ": " << v << "\n";
    }
    if (server) {
        authbench::WallTimer t;
        auto r = runServerSuite(smoke);
        const std::string path = out_dir + "/BENCH_server.json";
        writeServer(path, r, smoke);
        std::cout << "wrote " << path << " ("
                  << r.series.size() << " series, "
                  << t.seconds() << " s)\n";
        for (const auto &[k, v] : r.derived)
            std::cout << "  " << k << ": " << v << "\n";
    }
    return 0;
}
