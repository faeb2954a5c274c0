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
 *    hardware-independent ratios (SIMD speedup over scalar). Also
 *    scalar primitives: the frame codec (wire encode and decode of a
 *    128-bit challenge, CRC-32 over 4 KiB), SipHash-2-4 of a u64,
 *    SHA-256 of 1 KiB and the Feistel coordinate permutation; and
 *    server challenge generation on a device's first and later
 *    challenges (cold and warm logical views).
 *
 *  - BENCH_server.json -- end-to-end batch front-end throughput
 *    (frames/s, per-batch p50/p99) at several thread counts, with
 *    durability off and on, plus derived ratios (scaling, journaling
 *    overhead).
 *
 *  Both suites have one fixed size, and every derived ratio follows
 *  one rule: the median of its per-pass ratios over interleaved
 *  passes of the same fixed work (PassRecorder). A run of both takes
 *  a few seconds.
 *
 *  tools/bench_compare.py diffs a fresh run against the checked-in
 *  baselines and fails on regression; CI runs it in --ratios-only
 *  mode so the gate is hardware-independent.
 *
 * Flags: --out-dir <dir>, --hotpath-only, --server-only.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
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
using authbench::makeSeries;
using authbench::Series;

// ---------------------------------------------------------------
// Interleaved passes: the one ratio rule of both suites.
// ---------------------------------------------------------------

/**
 * Timings of several configs of one workload (SIMD widths of a kernel,
 * server widths with durability off and on), taken in passes. Each
 * pass times the same fixed block of work on every config, the configs
 * back to back, so a pass's rate ratio between two configs compares
 * runs made moments apart. A derived ratio is the median of the
 * per-pass ratios; a series pools its samples over all passes.
 */
template <typename Config>
class PassRecorder
{
  public:
    /** One timed sample of @p ops ops on @p c in the current pass. */
    void
    record(const Config &c, double ns, std::uint64_t ops)
    {
        Tally &t = tallies[c];
        t.samples.push_back(ns);
        t.ops += ops;
        t.passNs += ns;
        t.passOps += ops;
    }

    /** Close the current pass: each config's rate over it. */
    void
    endPass()
    {
        for (auto &[c, t] : tallies) {
            t.passRates.push_back(
                t.passNs > 0.0 ? static_cast<double>(t.passOps) / t.passNs
                               : 0.0);
            t.passNs = 0.0;
            t.passOps = 0;
        }
    }

    /** Median over passes of rate(@p a) / rate(@p b) (the upper
     *  middle for an even pass count). */
    double
    medianRatio(const Config &a, const Config &b) const
    {
        const auto &ra = tallies.at(a).passRates;
        const auto &rb = tallies.at(b).passRates;
        std::vector<double> ratios;
        for (std::size_t i = 0; i < ra.size(); ++i)
            ratios.push_back(rb[i] > 0.0 ? ra[i] / rb[i] : 0.0);
        std::sort(ratios.begin(), ratios.end());
        return ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
    }

    /** The row of @p c: every sample, ops exactly as recorded. */
    Series
    series(const Config &c, const std::string &name,
           const std::string &simd) const
    {
        const Tally &t = tallies.at(c);
        Series s = makeSeries(name, simd, t.ops / t.samples.size(),
                              t.samples);
        s.ops = t.ops;
        return s;
    }

  private:
    struct Tally
    {
        std::vector<double> samples;
        std::uint64_t ops = 0;
        double passNs = 0.0; ///< Current pass.
        std::uint64_t passOps = 0;
        std::vector<double> passRates; ///< Ops per ns, one per pass.
    };
    std::map<Config, Tally> tallies;
};

/** What a suite writes; empty sections are left out. */
struct SuiteResult
{
    std::vector<std::uint64_t> threadCounts;
    std::vector<Series> series;
    std::map<std::string, double> derived;
    std::map<std::string, double> floors;
};

// ---------------------------------------------------------------
// Hot-path microkernels.
// ---------------------------------------------------------------

/**
 * The scalar primitives, the same code at every dispatch width: the
 * frame codec (the wire encode and the client-side decode --
 * WireDecoder + decodeMessage -- of the 128-bit ChallengeMsg the
 * server sends per auth, and CRC-32 over 4 KiB), SipHash-2-4 of a u64
 * (the Feistel round function), SHA-256 of 1 KiB, and
 * FeistelPermutation::map over a 2^19-entry domain. Each sample times
 * one batch of a primitive over the same inputs, and every batch is
 * checked, which also keeps its results live.
 */
void
runScalarPrimitives(const core::CacheGeometry &geom, core::VddMv level_mv,
                    util::Rng &rng, std::vector<Series> &series)
{
    const protocol::ChallengeMsg msg{
        rng.next(), core::randomChallenge(geom, level_mv, 128, rng)};
    const auto frame = net::encodeWireMessage(1, msg);
    std::vector<std::uint8_t> block(4096);
    for (auto &b : block)
        b = static_cast<std::uint8_t>(rng.next());
    const crypto::SipHashKey key{3, 4};
    const crypto::FeistelPermutation perm(key, 65536ull * 8);
    const std::vector<std::uint8_t> kib(1024, 0xAB);

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

    // Each batch folds its results into one word, which must match
    // the word of an untimed batch.
    constexpr std::uint64_t kBatch = 64;
    struct Primitive
    {
        const char *name;
        std::uint64_t opsPerSample;
        std::function<std::uint64_t()> batch;
        std::vector<double> ns = {};
    };
    Primitive primitives[] = {
        {"challenge_wire_encode_128bit", kBatch,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < kBatch; ++i)
                 acc += net::encodeWireMessage(1, msg) == frame;
             return acc;
         }},
        {"challenge_wire_decode_128bit", kBatch,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < kBatch; ++i)
                 acc += std::get<protocol::ChallengeMsg>(decode())
                            .nonce == msg.nonce;
             return acc;
         }},
        {"crc32_4kib", kBatch,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < kBatch; ++i)
                 acc += util::crc32(block);
             return acc;
         }},
        {"siphash24_u64", kBatch,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t w = 0; w < kBatch; ++w)
                 acc ^= crypto::siphash24(key, w);
             return acc;
         }},
        {"sha256_1kib", kBatch / 8,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t i = 0; i < kBatch / 8; ++i)
                 acc += crypto::Sha256::hash(kib)[i];
             return acc;
         }},
        {"feistel_map", kBatch,
         [&] {
             std::uint64_t acc = 0;
             for (std::uint64_t x = 0; x < kBatch; ++x)
                 acc ^= perm.map(x);
             return acc;
         }},
    };

    std::vector<std::uint64_t> want;
    for (Primitive &p : primitives)
        want.push_back(p.batch());
    // The codec and the hash primitives are sampled as two groups:
    // interleaving the codec's allocations with the Feistel map
    // measured up to 2x its time.
    constexpr std::size_t kSamples = 400;
    for (auto [lo, hi] : {std::pair{0, 3}, std::pair{3, 6}}) {
        for (std::size_t s = 0; s < kSamples; ++s) {
            for (int i = lo; i < hi; ++i) {
                Primitive &p = primitives[i];
                const auto t0 = Clock::now();
                const std::uint64_t got = p.batch();
                p.ns.push_back(nsSince(t0));
                if (got != want[i]) {
                    std::cerr << "FAIL: " << p.name << " diverged\n";
                    std::exit(1);
                }
            }
        }
    }
    const std::string scalar =
        util::simdLevelName(util::SimdLevel::Scalar);
    for (Primitive &p : primitives)
        series.push_back(makeSeries(p.name, scalar, p.opsPerSample,
                                    std::move(p.ns)));
}

/**
 * ChallengeGenerator::generate of a 128-bit challenge on a 1024-line
 * device with 40 errors under a random map key: "cold" on record
 * copies that have never generated, so the first use of the level
 * builds its logical view, and "warm" on copies of records that have,
 * which share the built view (perfbench's replay times only these).
 * Each sample times one batch over fresh copies of the same records,
 * so every pass draws the same challenges. Every batch is checked,
 * untimed, against evaluate() over the physical map remapped by a
 * LogicalRemap of the record's key.
 */
void
runChallengeGenerate(std::vector<Series> &series)
{
    const core::CacheGeometry geom(64 * 1024);
    const core::VddMv level_mv = 700;
    constexpr std::size_t kRecords = 64;
    constexpr std::size_t kBits = 128;
    util::Rng rng(0xC01D);
    std::vector<server::DeviceRecord> fresh;
    std::vector<core::ErrorMap> oracle;
    for (std::size_t i = 0; i < kRecords; ++i) {
        server::DeviceRecord rec(
            i, mc::randomErrorMap(geom, level_mv, 40, rng), {level_mv},
            {});
        crypto::Key256 key;
        for (auto &b : key.bytes)
            b = static_cast<std::uint8_t>(rng.next());
        rec.setMapKey(key);
        oracle.push_back(core::LogicalRemap(key, geom).mapErrorMap(
            rec.physicalMap()));
        fresh.push_back(std::move(rec));
    }
    server::ChallengeGenerator gen(util::Rng(1));
    std::vector<server::DeviceRecord> warmed = fresh;
    for (auto &rec : warmed)
        gen.generate(rec, level_mv, kBits);

    struct Config
    {
        const char *name;
        const std::vector<server::DeviceRecord> *records;
        std::vector<double> ns = {};
    };
    Config configs[] = {{"challenge_generate_cold_128bit", &fresh},
                        {"challenge_generate_warm_128bit", &warmed}};
    constexpr std::size_t kSamples = 200;
    std::vector<server::GeneratedChallenge> out(kRecords);
    for (std::size_t s = 0; s < kSamples; ++s) {
        for (Config &c : configs) {
            std::vector<server::DeviceRecord> copies = *c.records;
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < kRecords; ++i)
                out[i] = gen.generate(copies[i], level_mv, kBits);
            c.ns.push_back(nsSince(t0));
            for (std::size_t i = 0; i < kRecords; ++i) {
                if (out[i].expected !=
                    core::evaluate(oracle[i], out[i].challenge)) {
                    std::cerr << "FAIL: " << c.name << " diverged\n";
                    std::exit(1);
                }
            }
        }
    }
    for (Config &c : configs)
        series.push_back(makeSeries(c.name,
                                    util::simdLevelName(util::simdLevel()),
                                    kRecords, std::move(c.ns)));
}

SuiteResult
runHotpath()
{
    SuiteResult out;
    util::Rng rng(0xBE7C);
    const auto levels = util::supportedSimdLevels();
    const util::SimdLevel widest = util::detectedSimdLevel();

    // SECDED batch kernels: encode + decode over a word buffer.
    constexpr std::size_t kWords = 1u << 16;
    constexpr std::size_t kReps = 4;
    std::vector<std::uint64_t> data(kWords);
    for (auto &w : data)
        w = rng.next();
    std::vector<std::uint32_t> check(kWords);
    std::vector<ecc::DecodeResult> dec(kWords);
    ecc::SecdedCodec codec(64);

    // Challenge evaluation: 64-bit challenges against a 60-error map
    // of a 4MB cache, through the query-major plane scan the server
    // computes expected responses with. Every width must give the
    // scalar responses.
    const core::CacheGeometry geom(4 * 1024 * 1024);
    const core::VddMv level_mv = 700.0;
    core::ErrorMap map = mc::randomErrorMap(geom, level_mv, 60, rng);
    constexpr std::size_t kEvals = 2000;
    std::vector<core::Challenge> challenges;
    std::vector<core::Response> want;
    challenges.reserve(kEvals);
    want.reserve(kEvals);
    for (std::size_t i = 0; i < kEvals; ++i) {
        challenges.push_back(
            core::randomChallenge(geom, level_mv, 64, rng));
        want.push_back(core::evaluate(map, challenges.back(),
                                      util::SimdLevel::Scalar));
    }

    // Each pass times every kernel at every width, one width's block
    // after the other; equal work at every width.
    constexpr std::size_t kPasses = 25;
    PassRecorder<util::SimdLevel> encode, decode, evaluate;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (util::SimdLevel level : levels) {
            for (std::size_t r = 0; r < kReps; ++r) {
                auto t0 = Clock::now();
                codec.encodeBatch(data.data(), check.data(), kWords,
                                  level);
                encode.record(level, nsSince(t0), kWords);
                t0 = Clock::now();
                codec.decodeBatch(data.data(), check.data(), dec.data(),
                                  kWords, level);
                decode.record(level, nsSince(t0), kWords);
            }
            for (std::size_t i = 0; i < kEvals; ++i) {
                auto t0 = Clock::now();
                auto resp = core::evaluate(map, challenges[i], level);
                evaluate.record(level, nsSince(t0), 1);
                if (resp != want[i]) {
                    std::cerr << "FAIL: evaluate diverged at "
                              << util::simdLevelName(level) << "\n";
                    std::exit(1);
                }
            }
        }
        for (auto *k : {&encode, &decode, &evaluate})
            k->endPass();
    }

    const std::tuple<const char *, const char *,
                     const PassRecorder<util::SimdLevel> *>
        kernels[] = {
            {"secded_encode_batch", "secded_encode_simd_speedup", &encode},
            {"secded_decode_batch", "secded_decode_simd_speedup", &decode},
            {"evaluate_64bit", "evaluate_simd_speedup", &evaluate}};
    for (const auto &[name, speedup, k] : kernels) {
        for (util::SimdLevel level : levels)
            out.series.push_back(
                k->series(level, name, util::simdLevelName(level)));
        out.derived[speedup] =
            k->medianRatio(widest, util::SimdLevel::Scalar);
    }
    runScalarPrimitives(geom, level_mv, rng, out.series);
    runChallengeGenerate(out.series);
    // The acceptance floor the compare script enforces on every run:
    // the widest challenge evaluation must hold >= 2x over scalar.
    out.floors["evaluate_simd_speedup"] = 2.0;
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

/**
 * One server config of the suite: an enrolled flood of devices, the
 * pool that serves its batches and, with durability on, the journal
 * directory it owns.
 */
struct Flood
{
    std::string label;
    server::ServerConfig cfg;
    server::AuthenticationServer srv;
    std::vector<std::uint64_t> ids;
    std::vector<Mailbox> mail;
    std::string durDir;
    std::optional<server::DurabilityManager> dur;
    util::ThreadPool pool;

    Flood(std::size_t n_devices, unsigned threads, bool durable)
        : label((durable ? "server_batch_durable_t" : "server_batch_t") +
                std::to_string(threads)),
          cfg([] {
              server::ServerConfig c;
              c.challengeBits = 64;
              c.verifier.pIntra = 0.08;
              c.maxPendingSessions = 1 << 20;
              c.sessionShards = 16;
              return c;
          }()),
          srv(cfg, kServerSeed), pool(threads)
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
        if (durable) {
            durDir = (std::filesystem::temp_directory_path() /
                      ("authbench_runner_dur_t" + std::to_string(threads)))
                         .string();
            std::filesystem::remove_all(durDir);
            std::filesystem::create_directories(durDir);
            dur.emplace(server::DurabilityConfig{durDir, 4096},
                        srv.database());
            srv.attachDurability(&*dur);
        }
    }

    ~Flood()
    {
        if (dur) {
            dur.reset();
            std::filesystem::remove_all(durDir);
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

/**
 * One round on @p flood: every device's AuthRequest as one batch, then
 * the honest ResponseMsg to each challenge as a second; each batch is
 * timed into @p rec under config @p c.
 */
void
runRound(Flood &flood, PassRecorder<std::size_t> &rec, std::size_t c)
{
    const std::size_t n_devices = flood.ids.size();
    std::vector<server::Frame> batch;
    batch.reserve(n_devices);
    for (std::size_t i = 0; i < n_devices; ++i)
        batch.push_back(server::Frame{
            protocol::encodeMessage(protocol::AuthRequest{flood.ids[i]}),
            &flood.mail[i]});
    auto t0 = Clock::now();
    flood.srv.handleBatch(batch, flood.pool);
    rec.record(c, nsSince(t0), batch.size());

    batch.clear();
    for (std::size_t i = 0; i < n_devices; ++i) {
        auto &inbox = flood.mail[i].frames;
        if (inbox.empty())
            continue;
        auto msg = protocol::decodeMessage(inbox.front());
        auto *ch = std::get_if<protocol::ChallengeMsg>(&msg);
        if (!ch)
            continue;
        const auto &rec_i = flood.srv.database().at(flood.ids[i]);
        batch.push_back(server::Frame{
            protocol::encodeMessage(protocol::ResponseMsg{
                ch->nonce, honest(rec_i, ch->challenge)}),
            &flood.mail[i]});
    }
    t0 = Clock::now();
    flood.srv.handleBatch(batch, flood.pool);
    rec.record(c, nsSince(t0), batch.size());
    for (auto &box : flood.mail)
        box.frames.clear();
}

SuiteResult
runServerSuite()
{
    // Every pass runs the same rounds on every config: 2 timed batches
    // a round, so 500 batches per series.
    constexpr std::size_t kDevices = 192;
    constexpr std::size_t kPasses = 50;
    constexpr std::size_t kRoundsPerPass = 5;

    const unsigned hw = util::ThreadPool::defaultThreadCount();
    std::vector<unsigned> widths{1, 4};
    if (hw > 4)
        widths.push_back(hw);

    // One flood and one pool per (width, durability) config, alive for
    // the whole run; plain/durable pairs in width order.
    std::vector<std::unique_ptr<Flood>> floods;
    for (unsigned w : widths)
        for (bool durable : {false, true})
            floods.push_back(std::make_unique<Flood>(kDevices, w, durable));

    PassRecorder<std::size_t> rec;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (std::size_t c = 0; c < floods.size(); ++c)
            for (std::size_t r = 0; r < kRoundsPerPass; ++r)
                runRound(*floods[c], rec, c);
        rec.endPass();
    }

    SuiteResult out;
    out.threadCounts.assign(widths.begin(), widths.end());
    const std::string simd = util::simdLevelName(util::simdLevel());
    std::uint64_t accepted_ref = 0;
    for (std::size_t c = 0; c < floods.size(); ++c) {
        Flood &flood = *floods[c];
        std::uint64_t accepted = 0;
        for (auto id : flood.ids)
            accepted += flood.srv.database().at(id).accepted();
        if (c == 0)
            accepted_ref = accepted;
        if (accepted != accepted_ref) {
            std::cerr << "FAIL: accepted count diverged at "
                      << flood.label << "\n";
            std::exit(1);
        }
        out.series.push_back(rec.series(c, flood.label, simd));
    }
    const std::size_t plain_hw = floods.size() - 2;
    out.derived["scaling_max_threads_vs_1"] =
        rec.medianRatio(plain_hw, 0);
    out.derived["durable_overhead_ratio"] =
        rec.medianRatio(plain_hw, plain_hw + 1);
    return out;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

/** Write @p r to @p path under @p schema. */
void
writeSuite(const std::string &path, const std::string &schema,
           const SuiteResult &r)
{
    std::ofstream f(path);
    Json j(f);
    j.open();
    authbench::writeHeader(j, schema, /*quick=*/false);
    if (!r.threadCounts.empty()) {
        j.openArray("thread_counts");
        for (std::uint64_t t : r.threadCounts) {
            j.openObject();
            j.field("threads", t);
            j.closeObject();
        }
        j.closeArray();
    }
    j.openArray("benchmarks");
    for (const auto &s : r.series)
        authbench::writeSeries(j, s);
    j.closeArray();
    j.openObject("derived");
    for (const auto &[k, v] : r.derived)
        j.field(k, v);
    j.closeObject();
    if (!r.floors.empty()) {
        j.openObject("floors");
        for (const auto &[k, v] : r.floors)
            j.field(k, v);
        j.closeObject();
    }
    j.close();
}

/** Run one suite, write it and print its derived ratios. */
void
runSuite(const std::string &path, const std::string &schema,
         SuiteResult (*suite)())
{
    authbench::WallTimer t;
    const SuiteResult r = suite();
    writeSuite(path, schema, r);
    std::cout << "wrote " << path << " (" << r.series.size()
              << " series, " << t.seconds() << " s)\n";
    for (const auto &[k, v] : r.derived)
        std::cout << "  " << k << ": " << v << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    bool hotpath = true, server = true;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out-dir") && i + 1 < argc)
            out_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--hotpath-only"))
            server = false;
        else if (!std::strcmp(argv[i], "--server-only"))
            hotpath = false;
        else {
            std::cerr << "usage: bench_runner [--out-dir D] "
                         "[--hotpath-only|--server-only]\n";
            return 2;
        }
    }

    util::printBanner(std::cout, "Perf-trajectory runner (BENCH_*.json)");
    std::cout << "Regression gate inputs; see EXPERIMENTS.md "
                 "'Perf trajectory'\n\n";

    if (hotpath)
        runSuite(out_dir + "/BENCH_hotpath.json",
                 "authenticache-bench-hotpath-v1", runHotpath);
    if (server)
        runSuite(out_dir + "/BENCH_server.json",
                 "authenticache-bench-server-v1", runServerSuite);
    return 0;
}
