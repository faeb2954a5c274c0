/**
 * @file
 * Shared pieces of the end-to-end benchmark: clocks, percentiles,
 * the in-memory span tracer, the metric report, and the seeded
 * device fleet every workload enrolls.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "core/error_map.hpp"
#include "server/database.hpp"

namespace perfbench {

namespace ac = authenticache;

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady_clock). */
std::int64_t nowNs();

/** CPU time consumed by the calling thread, in nanoseconds. */
std::int64_t threadCpuNs();

/** CPU time consumed by every thread of this process, in nanoseconds. */
std::int64_t processCpuNs();

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** Median of the values (copied). */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile @p q (0..1). Sets @p supported to whether
 * at least ten samples lie beyond it, the least a tail figure needs.
 */
double percentile(std::vector<double> v, double q, bool &supported);

/**
 * Robust run-level figures. Host noise on a shared machine comes in
 * bursts shorter than a run, so a run is cut into @p blocks equal
 * consecutive slices and the median over slices is reported.
 */

/** Median over slices of @p v (in completion order) of the slice's
 *  @p q percentile; @p supported only if every slice supports it. */
double blockPercentile(const std::vector<double> &v, std::size_t blocks,
                       double q, bool &supported);

/** What the benchmark was asked to run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Directory inside the checkout for durable state and traces. */
    std::string stateDir;
};

// ---------------------------------------------------------------
// Tracing: spans kept in memory per thread, written out at exit.
// ---------------------------------------------------------------

enum class SpanName : std::uint8_t
{
    Auth,          ///< One auth, AuthRequest write to AuthDecision read.
    DeviceEval,    ///< Device side: evaluate a challenge, build reply.
    Pump,          ///< One EpollTransport::pump call that did work.
    Rotation,      ///< A pump call across which generation() advanced.
    HbStep,        ///< One heartbeat cadence step.
    HbTick,        ///< AuthenticationServer::tickHeartbeats.
    HbProofs,      ///< handleBatch over one step's proofs.
    ReplayDecode,  ///< protocol::decodeMessage over recorded frames.
    ReplayGenerate,///< ChallengeGenerator::generate on record copies.
    ReplayVerify,  ///< Verifier::verify over recorded pairs.
    Count
};

const char *spanName(SpanName name);

/**
 * Span recorder owned by one thread. Disabled tracers record nothing
 * and return -1 from open(), so untraced runs pay one branch.
 */
class Tracer
{
  public:
    Tracer(bool enabled, std::uint32_t thread);

    bool enabled() const { return on; }

    /** Open a span now. @return its index, or -1 when disabled. */
    std::int64_t open(SpanName name, std::int64_t parent = -1,
                      std::uint64_t request = 0);

    /** Close a span opened with open(). */
    void close(std::int64_t index);

    /** Record a finished span with explicit times. */
    std::int64_t record(SpanName name, std::int64_t start,
                        std::int64_t end, std::int64_t parent = -1,
                        std::uint64_t request = 0);

    std::uint64_t count(SpanName name) const
    {
        return counts[static_cast<std::size_t>(name)];
    }

    /** Summed duration of closed spans with this name, in ns. */
    double totalNs(SpanName name) const
    {
        return static_cast<double>(
            totals[static_cast<std::size_t>(name)]);
    }

    std::size_t size() const { return spans.size(); }

    /** One JSON object per line: thread, id, name, times, parent. */
    void writeJsonLines(std::ostream &os) const;

  private:
    struct Span
    {
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t parent = -1;
        std::uint64_t request = 0;
        SpanName name = SpanName::Count;
    };

    bool on;
    std::uint32_t thread;
    std::vector<Span> spans;
    std::array<std::uint64_t, static_cast<std::size_t>(SpanName::Count)>
        counts{};
    std::array<std::int64_t, static_cast<std::size_t>(SpanName::Count)>
        totals{};
};

/**
 * Run @p body(i) for i in [0, n) inside one span named @p name.
 * @return mean microseconds per call (0 when n is 0).
 */
template <typename Fn>
double
usPerItem(Tracer &tracer, SpanName name, std::size_t n, Fn body)
{
    if (n == 0)
        return 0.0;
    const std::int64_t span = tracer.open(name);
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < n; ++i)
        body(i);
    const std::int64_t t1 = nowNs();
    tracer.close(span);
    return static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(n);
}

/**
 * Write the tracers' spans to <stateDir>/trace-<workload>-<seed>.jsonl.
 * @return the number of spans written.
 */
std::size_t writeSpans(const RunOptions &opt,
                       std::initializer_list<const Tracer *> tracers);

// ---------------------------------------------------------------
// Report: named metrics plus output checks.
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** A metric the result line carries: name and unit. */
struct MetricKey
{
    std::string name;
    std::string unit;
};

class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, std::uint64_t samples);

    /** Record an output check; a failed one makes the run incorrect. */
    void check(bool ok, const std::string &what);

    /** Print a context line (not a metric) before the result. */
    void note(const std::string &line);

    const Metric *find(const std::string &name) const;
    bool correct() const { return failures.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Print every metric by name with unit and sample count, then the
     * result line: a JSON object holding exactly @p keys as metrics.
     * A key this workload does not exercise is reported as 0.
     */
    void print(std::ostream &os, const std::vector<MetricKey> &keys) const;

  private:
    std::vector<Metric> all;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
};

// ---------------------------------------------------------------
// The device fleet.
// ---------------------------------------------------------------

constexpr std::uint64_t kFirstDevice = 1;
constexpr ac::core::VddMv kLevel = 700;
/** Errors per enrolled error map (the figures' 64 KB cache default). */
constexpr std::size_t kErrorsPerMap = 40;

/**
 * Enrollment inputs and device-side response material for @p n
 * devices, derived from the seed alone. Device i has id
 * kFirstDevice + i, a random error map, and a random logical-map key;
 * deviceMaps[i] is that map under the key, which is all an honest
 * device needs to answer a challenge.
 */
struct Fleet
{
    std::vector<ac::server::DeviceRecord> records;
    std::vector<ac::core::ErrorMap> deviceMaps;

    std::size_t size() const { return deviceMaps.size(); }
    static std::uint64_t idOf(std::size_t i) { return kFirstDevice + i; }
    static std::size_t indexOf(std::uint64_t id)
    {
        return static_cast<std::size_t>(id - kFirstDevice);
    }
};

Fleet makeFleet(std::size_t n, std::uint64_t seed);

/** Workload entry points; each fills @p report. */
void runAuthWorkload(const RunOptions &opt, Report &report);
void runHeartbeatWorkload(const RunOptions &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
