/**
 * @file
 * The one JSON writer behind every BENCH_*.json file (bench_runner,
 * bench_transport_load, bench_heartbeat_drift), plus the timing
 * helpers, header fields and "benchmarks" rows those harnesses share.
 *
 * Output is fixed-order and diff-friendly: one key per line, two
 * spaces of indent per level, 12 significant digits for doubles.
 * tools/bench_compare.py reads it back and validates the schema
 * (EXPERIMENTS.md "Perf trajectory").
 */

#ifndef AUTH_BENCH_JSON_HPP
#define AUTH_BENCH_JSON_HPP

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace authbench {

using Clock = std::chrono::steady_clock;

inline double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** The @p p quantile of @p samples (sorted in place; 0 when empty). */
inline double
percentile(std::vector<double> &samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1));
    return samples[i];
}

/**
 * Streaming JSON writer. A value is a std::string, a string literal,
 * a double, a std::uint64_t or a bool; every other type is a deleted
 * overload, so a `const char *` cannot silently become `true` and an
 * int cannot pick an arbitrary numeric overload.
 */
class Json
{
  public:
    explicit Json(std::ostream &os_) : os(os_) { os.precision(12); }

    void
    open()
    {
        os << "{";
        firsts.push_back(true);
    }
    void
    close()
    {
        firsts.pop_back();
        os << "\n}\n";
    }

    void
    field(std::string_view key, const std::string &value)
    {
        pre(key);
        os << '"' << value << '"';
    }
    template <std::size_t N>
    void
    field(std::string_view key, const char (&value)[N])
    {
        field(key, std::string(value));
    }
    void
    field(std::string_view key, double value)
    {
        pre(key);
        os << value;
    }
    void
    field(std::string_view key, std::uint64_t value)
    {
        pre(key);
        os << value;
    }
    void
    field(std::string_view key, bool value)
    {
        pre(key);
        os << (value ? "true" : "false");
    }
    template <typename T>
    void field(std::string_view key, const T &value) = delete;

    void
    openArray(std::string_view key)
    {
        pre(key);
        os << "[";
        firsts.push_back(true);
    }
    void
    closeArray()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  ]";
    }
    /** Open an object; no key inside an array. */
    void
    openObject(std::string_view key = "")
    {
        pre(key);
        os << "{";
        firsts.push_back(true);
    }
    void
    closeObject()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  }";
    }

  private:
    void
    pre(std::string_view key)
    {
        if (!firsts.back())
            os << ",";
        firsts.back() = false;
        os << "\n" << indent() << "  ";
        if (!key.empty())
            os << '"' << key << "\": ";
    }
    std::string
    indent() const
    {
        return std::string(2 * (firsts.size() - 1), ' ');
    }

    std::ostream &os;
    std::vector<bool> firsts; ///< "next element is first" per depth.
};

/**
 * The header fields BENCH_hotpath/server/transport open with: the
 * schema tag, the run mode, and the host facts a reader needs to
 * compare two files (SIMD width detected and dispatched, threads).
 */
inline void
writeHeader(Json &j, const std::string &schema, bool quick)
{
    using namespace authenticache;
    j.field("schema", schema);
    j.field("quick", quick);
    j.field("detected_simd",
            std::string(util::simdLevelName(util::detectedSimdLevel())));
    j.field("dispatch_simd",
            std::string(util::simdLevelName(util::simdLevel())));
    j.field("hardware_threads",
            std::uint64_t(util::ThreadPool::defaultThreadCount()));
}

/** One "benchmarks" row: throughput plus latency percentiles. */
struct Series
{
    std::string name;
    std::string simd;
    double opsPerS = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t ops = 0;
};

/**
 * The row for @p samples, each the time in ns of @p ops_per_sample
 * ops. Percentiles are per *sample*, divided by @p ops_per_sample for
 * a per-op figure where a sample batches many ops.
 */
inline Series
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
    s.p50Ns = percentile(samples, 0.50) /
              static_cast<double>(ops_per_sample);
    s.p99Ns = percentile(samples, 0.99) /
              static_cast<double>(ops_per_sample);
    return s;
}

/** Write @p s as one object of a "benchmarks" array. */
inline void
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

/** Pass/fail properties of a run, by name; each must hold. */
using Gates = std::map<std::string, bool>;

/** Write @p gates as the "gates" object of JSON bools. */
inline void
writeGates(Json &j, const Gates &gates)
{
    j.openObject("gates");
    for (const auto &[name, ok] : gates)
        j.field(name, ok);
    j.closeObject();
}

/** Print each gate's verdict; @return true when every gate holds. */
inline bool
reportGates(const Gates &gates)
{
    bool all = true;
    for (const auto &[name, ok] : gates) {
        std::cout << "  " << name << ": " << (ok ? "pass" : "FAIL")
                  << "\n";
        all = all && ok;
    }
    return all;
}

} // namespace authbench

#endif // AUTH_BENCH_JSON_HPP
