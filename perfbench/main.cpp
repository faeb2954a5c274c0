/**
 * @file
 * authbench: end-to-end benchmark of the Authenticache server.
 *
 *   authbench --workload auth_socket|heartbeat_fleet
 *             --seed N --seconds S --trace 0|1 --state-dir DIR
 *
 * Operation counts are fixed by the workload and --seconds (which
 * scales them), never by elapsed time. --trace 0 measures the
 * end-to-end metrics; --trace 1 repeats that run, then runs again
 * with spans recorded, replays the run's inputs through single
 * layers, and reports the per-layer metrics plus the tracer's
 * overhead. Every metric is printed by name with unit and sample
 * count; the last line is the JSON result. The exit code is nonzero
 * when any output check fails.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

/** End-to-end metrics (--trace 0); BENCHMARK.json end_to_end. */
const std::vector<MetricKey> kEndToEnd = {
    {"p50_ms", "ms"},
    {"server_cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"server_peak_rss_mb", "MB"},
};

/** Per-layer metrics (--trace 1); BENCHMARK.json per_layer. */
const std::vector<MetricKey> kPerLayer = {
    {"net.pump_busy_frac", "1"},
    {"net.pump_us_per_frame", "us"},
    {"net.frames_per_batch", "count"},
    {"net.bytes_per_auth", "B"},
    {"net.frames_in", "count"},
    {"net.shed", "count"},
    {"net.backpressure_stalls", "count"},
    {"server.sessions_evicted", "count"},
    {"server.sessions_expired", "count"},
    {"server.duplicate_requests", "count"},
    {"loadgen.busy_frac", "1"},
    {"loadgen.eval_us_per_response", "us"},
    {"protocol.decode_us_per_frame", "us"},
    {"challenge_gen.us_per_challenge", "us"},
    {"verifier.us_per_verify", "us"},
    {"auth.light_per_s", "1/s"},
    {"auth.loaded_per_s", "1/s"},
    {"auth.light_p50_ms", "ms"},
    {"auth.light_p90_ms", "ms"},
    {"auth.light_p99_ms", "ms"},
    {"auth.loaded_p99_ms", "ms"},
    {"durability.setup_s", "s"},
    {"durability.loaded_per_s", "1/s"},
    {"durability.cpu_us_per_auth", "us"},
    {"durability.light_p50_ms", "ms"},
    {"durability.light_p99_ms", "ms"},
    {"durability.loaded_p50_ms", "ms"},
    {"durability.loaded_p90_ms", "ms"},
    {"durability.loaded_p99_ms", "ms"},
    {"durability.appends", "count"},
    {"durability.appends_per_auth", "count"},
    {"durability.bytes_per_auth", "B"},
    {"durability.fsyncs_per_auth", "count"},
    {"durability.rotations", "count"},
    {"durability.rotate_ms_p50", "ms"},
    {"durability.rotate_busy_frac", "1"},
    {"durability.stalled_auth_frac", "1"},
    {"durability.recover_s", "s"},
    {"durability.replayed_records", "count"},
    {"storage.snapshot_mb", "MB"},
    {"storage.encode_ms", "ms"},
    {"storage.decode_ms", "ms"},
    {"heartbeat.rounds_per_s", "1/s"},
    {"heartbeat.step_p90_ms", "ms"},
    {"heartbeat.step_p99_ms", "ms"},
    {"heartbeat.tick_us_per_round", "us"},
    {"heartbeat.proof_us_per_round", "us"},
    {"heartbeat.challenge_bits_per_round", "bits"},
    {"heartbeat.clean", "count"},
    {"heartbeat.marginal", "count"},
    {"heartbeat.failed", "count"},
    {"heartbeat.step_ups", "count"},
    {"trace.overhead_frac", "1"},
    {"trace.spans", "count"},
};

int
usage()
{
    std::cerr << "usage: authbench --workload "
                 "auth_socket|heartbeat_fleet --seed N "
                 "--seconds S --trace 0|1 --state-dir DIR\n";
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed" && parseUnsigned(val, n)) {
            opt.seed = n;
        } else if (flag == "--seconds" && parseUnsigned(val, n) &&
                   n >= 1 && n <= 60) {
            opt.seconds = static_cast<unsigned>(n);
        } else if (flag == "--trace" && parseUnsigned(val, n) && n <= 1) {
            opt.trace = n == 1;
        } else if (flag == "--state-dir") {
            opt.stateDir = val;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || opt.stateDir.empty())
        return usage();

    Report report;
    report.note("workload " + opt.workload + ", seed " +
                std::to_string(opt.seed) + ", seconds " +
                std::to_string(opt.seconds) + ", trace " +
                (opt.trace ? "1" : "0"));
    report.note(
        "host: nproc " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", simd " +
        authenticache::util::simdLevelName(
            authenticache::util::simdLevel()) +
        "; threads: pump + 2 pool workers, plus 1 load generator "
        "in auth_socket");
    try {
        if (opt.workload == "auth_socket")
            runAuthWorkload(opt, report);
        else if (opt.workload == "heartbeat_fleet")
            runHeartbeatWorkload(opt, report);
        else
            return usage();
        report.print(std::cout, opt.trace ? kPerLayer : kEndToEnd);
    } catch (const std::exception &e) {
        std::cerr << "authbench: " << e.what() << "\n";
        return 1;
    }
    return report.correct() ? 0 : 1;
}
