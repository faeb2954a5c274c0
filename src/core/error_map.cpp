#include "core/error_map.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace authenticache::core {

SortedPoints::SortedPoints(std::vector<std::uint64_t> lines,
                           const CacheGeometry &geom)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    const std::size_t n = lines.size();
    coords.resize(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const LinePoint p = geom.pointOf(lines[i]);
        coords[i] = p.set;
        coords[n + i] = p.way;
    }
}

std::size_t
SortedPoints::lowerBound(const LinePoint &p) const
{
    std::size_t lo = 0, hi = size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if ((*this)[mid] < p)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
SortedPoints::insert(std::size_t at, const LinePoint &p)
{
    const auto n = static_cast<std::ptrdiff_t>(size());
    const auto i = static_cast<std::ptrdiff_t>(at);
    coords.insert(coords.begin() + n + i, p.way);
    coords.insert(coords.begin() + i, p.set);
}

void
SortedPoints::erase(std::size_t at)
{
    const auto n = static_cast<std::ptrdiff_t>(size());
    const auto i = static_cast<std::ptrdiff_t>(at);
    coords.erase(coords.begin() + n + i);
    coords.erase(coords.begin() + i);
}

ErrorPlane::ErrorPlane(const CacheGeometry &geometry) : geom(geometry) {}

void
ErrorPlane::add(const LinePoint &p)
{
    if (!contains(p))
        points.insert(points.lowerBound(p), p);
}

void
ErrorPlane::addAll(std::span<const LinePoint> more)
{
    std::vector<std::uint64_t> lines;
    lines.reserve(errorCount() + more.size());
    for (const auto &e : errors())
        lines.push_back(geom.lineIndex(e));
    for (const auto &p : more)
        lines.push_back(geom.lineIndex(p));
    points = SortedPoints(std::move(lines), geom);
}

void
ErrorPlane::remove(const LinePoint &p)
{
    if (contains(p))
        points.erase(points.lowerBound(p));
}

bool
ErrorPlane::contains(const LinePoint &p) const
{
    if (!geom.contains(p))
        throw std::out_of_range("ErrorPlane: point outside cache");
    const std::size_t at = points.lowerBound(p);
    return at < points.size() && points[at] == p;
}

ErrorMap::ErrorMap(const CacheGeometry &geometry) : geom(geometry) {}

std::vector<std::pair<VddMv, ErrorPlane>>::const_iterator
ErrorMap::lowerBound(VddMv level) const
{
    return std::lower_bound(
        planes.begin(), planes.end(), level,
        [](const auto &entry, VddMv l) { return entry.first < l; });
}

ErrorPlane &
ErrorMap::plane(VddMv level)
{
    const auto at = lowerBound(level);
    const auto i = at - planes.cbegin();
    if (at == planes.cend() || at->first != level) {
        // One exact-size buffer: maps hold a handful of levels.
        planes.reserve(planes.size() + 1);
        planes.emplace(planes.begin() + i, level, ErrorPlane(geom));
    }
    return planes[i].second;
}

const ErrorPlane &
ErrorMap::plane(VddMv level) const
{
    const auto at = lowerBound(level);
    if (at == planes.end() || at->first != level)
        throw std::out_of_range("ErrorMap: no plane at that voltage");
    return at->second;
}

bool
ErrorMap::hasPlane(VddMv level) const
{
    const auto at = lowerBound(level);
    return at != planes.end() && at->first == level;
}

std::vector<VddMv>
ErrorMap::levels() const
{
    std::vector<VddMv> out;
    out.reserve(planes.size());
    for (const auto &[level, _] : planes)
        out.push_back(level);
    return out;
}

void
ErrorMap::addSweep(VddMv level, std::span<const LinePoint> lines)
{
    plane(level).addAll(lines);
}

std::size_t
ErrorMap::totalErrors() const
{
    std::size_t acc = 0;
    for (const auto &[_, p] : planes)
        acc += p.errorCount();
    return acc;
}

ErrorMap
combineErrorMaps(const std::vector<ErrorMap> &maps,
                 CombinePolicy policy)
{
    if (maps.empty())
        throw std::invalid_argument("combineErrorMaps: no maps");
    const CacheGeometry &geom = maps.front().geometry();
    for (const auto &m : maps) {
        if (!(m.geometry() == geom))
            throw std::invalid_argument(
                "combineErrorMaps: geometry mismatch");
    }

    // Collect the union of levels.
    std::map<VddMv, bool> levels;
    for (const auto &m : maps) {
        for (auto level : m.levels())
            levels[level] = true;
    }

    ErrorMap combined(geom);
    const std::size_t quorum =
        policy == CombinePolicy::Union
            ? 1
            : (policy == CombinePolicy::Intersection
                   ? maps.size()
                   : maps.size() / 2 + 1);

    for (const auto &[level, _] : levels) {
        // Count per-line occurrences across captures.
        std::map<std::uint64_t, std::size_t> counts;
        for (const auto &m : maps) {
            if (!m.hasPlane(level))
                continue;
            for (const auto &e : m.plane(level).errors())
                ++counts[geom.lineIndex(e)];
        }
        std::vector<LinePoint> kept;
        for (const auto &[line, count] : counts) {
            if (count >= quorum)
                kept.push_back(geom.pointOf(line));
        }
        combined.plane(level).addAll(kept);
    }
    return combined;
}

} // namespace authenticache::core
