#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "core/remap.hpp"
#include "mc/mapgen.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

std::int64_t
processCpuNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux.
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q, bool &supported)
{
    supported = false;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    supported = n - rank >= 10;
    return v[rank - 1];
}

double
blockPercentile(const std::vector<double> &v, std::size_t blocks,
                double q, bool &supported)
{
    supported = blocks > 0 && v.size() >= blocks;
    if (!supported)
        return 0.0;
    std::vector<double> per;
    const std::size_t len = v.size() / blocks;
    for (std::size_t b = 0; b < blocks; ++b) {
        bool ok = false;
        per.push_back(percentile(
            std::vector<double>(v.begin() + b * len,
                                v.begin() + (b + 1) * len),
            q, ok));
        supported = supported && ok;
    }
    return median(per);
}

// ---------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------

const char *
spanName(SpanName name)
{
    switch (name) {
    case SpanName::Auth:
        return "loadgen.auth";
    case SpanName::DeviceEval:
        return "core.device_eval";
    case SpanName::Pump:
        return "net.pump";
    case SpanName::Rotation:
        return "durability.rotation";
    case SpanName::HbStep:
        return "heartbeat.step";
    case SpanName::HbTick:
        return "server.tick_heartbeats";
    case SpanName::HbProofs:
        return "server.handle_batch";
    case SpanName::ReplayDecode:
        return "protocol.decode";
    case SpanName::ReplayGenerate:
        return "challenge_gen.generate";
    case SpanName::ReplayVerify:
        return "verifier.verify";
    case SpanName::Count:
        break;
    }
    return "?";
}

Tracer::Tracer(bool enabled, std::uint32_t thread_)
    : on(enabled), thread(thread_)
{
    if (on)
        spans.reserve(1u << 16);
}

std::int64_t
Tracer::open(SpanName name, std::int64_t parent, std::uint64_t request)
{
    if (!on)
        return -1;
    Span s;
    s.start = nowNs();
    s.parent = parent;
    s.request = request;
    s.name = name;
    spans.push_back(s);
    return static_cast<std::int64_t>(spans.size() - 1);
}

void
Tracer::close(std::int64_t index)
{
    if (index < 0)
        return;
    Span &s = spans[static_cast<std::size_t>(index)];
    s.end = nowNs();
    ++counts[static_cast<std::size_t>(s.name)];
    totals[static_cast<std::size_t>(s.name)] += s.end - s.start;
}

std::int64_t
Tracer::record(SpanName name, std::int64_t start, std::int64_t end,
               std::int64_t parent, std::uint64_t request)
{
    if (!on)
        return -1;
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.request = request;
    s.name = name;
    spans.push_back(s);
    ++counts[static_cast<std::size_t>(name)];
    totals[static_cast<std::size_t>(name)] += end - start;
    return static_cast<std::int64_t>(spans.size() - 1);
}

void
Tracer::writeJsonLines(std::ostream &os) const
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"thread\":" << thread << ",\"id\":" << i
           << ",\"name\":\"" << spanName(s.name)
           << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
           << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}\n";
    }
}

std::size_t
writeSpans(const RunOptions &opt,
           std::initializer_list<const Tracer *> tracers)
{
    std::filesystem::create_directories(opt.stateDir);
    std::ofstream f(opt.stateDir + "/trace-" + opt.workload + "-" +
                    std::to_string(opt.seed) + ".jsonl");
    std::size_t n = 0;
    for (const Tracer *t : tracers) {
        t->writeJsonLines(f);
        n += t->size();
    }
    if (!f)
        throw std::runtime_error("cannot write the span file");
    return n;
}

// ---------------------------------------------------------------
// Report
// ---------------------------------------------------------------

void
Report::add(const std::string &name, double value,
            const std::string &unit, std::uint64_t samples)
{
    all.push_back(Metric{name, value, unit, samples});
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

void
Report::note(const std::string &line)
{
    notes.push_back(line);
}

const Metric *
Report::find(const std::string &name) const
{
    for (const auto &m : all)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
Report::print(std::ostream &os, const std::vector<MetricKey> &keys) const
{
    for (const auto &n : notes)
        os << "# " << n << "\n";
    for (const auto &m : all)
        os << "metric " << m.name << " = " << std::setprecision(10)
           << m.value << " " << m.unit << " (samples " << m.samples
           << ")\n";
    for (const auto &f : failures)
        os << "CHECK FAILED: " << f << "\n";

    std::ostringstream js;
    js << std::setprecision(17);
    js << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Metric *m = find(keys[i].name);
        if (m != nullptr && m->unit != keys[i].unit)
            throw std::logic_error("unit mismatch for " + m->name);
        const double value = m != nullptr ? m->value : 0.0;
        js << (i == 0 ? "" : ", ") << "\"" << keys[i].name
           << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
           << ", \"unit\": \"" << keys[i].unit << "\"}";
    }
    js << "}}";
    os << js.str() << "\n";
}

// ---------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------

Fleet
makeFleet(std::size_t n, std::uint64_t seed)
{
    const ac::core::CacheGeometry geom(64 * 1024);
    Fleet fleet;
    fleet.records.reserve(n);
    fleet.deviceMaps.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t id = Fleet::idOf(i);
        ac::util::Rng rng = ac::util::Rng::forStream(seed, id);
        ac::core::ErrorMap map =
            ac::mc::randomErrorMap(geom, kLevel, kErrorsPerMap, rng);
        ac::crypto::Key256 key;
        for (std::size_t b = 0; b < key.bytes.size(); b += 8) {
            const std::uint64_t w = rng.next();
            for (std::size_t k = 0; k < 8; ++k)
                key.bytes[b + k] =
                    static_cast<std::uint8_t>(w >> (8 * k));
        }
        fleet.deviceMaps.push_back(
            ac::core::LogicalRemap(key, geom).mapErrorMap(map));
        ac::server::DeviceRecord record(id, std::move(map), {kLevel},
                                        {});
        record.setMapKey(key);
        fleet.records.push_back(std::move(record));
    }
    return fleet;
}

} // namespace perfbench
