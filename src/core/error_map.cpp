#include "core/error_map.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace authenticache::core {

ErrorPlane::ErrorPlane(const CacheGeometry &geometry) : geom(geometry)
{
    if (geom.lines() > kMaxPlaneLines)
        throw std::invalid_argument(
            "ErrorPlane: geometry above 2^32 lines");
}

std::uint32_t
ErrorPlane::indexOf(const LinePoint &p) const
{
    // The constructor's limit makes every index fit 32 bits.
    return static_cast<std::uint32_t>(geom.lineIndex(p));
}

void
ErrorPlane::add(const LinePoint &p)
{
    const std::uint32_t line = indexOf(p);
    const auto at = std::lower_bound(lines.begin(), lines.end(), line);
    if (at == lines.end() || *at != line)
        lines.insert(at, line);
}

void
ErrorPlane::addAll(std::span<const LinePoint> points)
{
    std::vector<std::uint32_t> merged;
    merged.reserve(lines.size() + points.size());
    merged.assign(lines.begin(), lines.end());
    for (const auto &p : points)
        merged.push_back(indexOf(p));
    std::sort(merged.begin(), merged.end());
    // A fresh vector, so the plane's buffer is exactly its size.
    lines = std::vector<std::uint32_t>(
        merged.begin(), std::unique(merged.begin(), merged.end()));
}

void
ErrorPlane::remove(const LinePoint &p)
{
    const std::uint32_t line = indexOf(p);
    const auto at = std::lower_bound(lines.begin(), lines.end(), line);
    if (at != lines.end() && *at == line)
        lines.erase(at);
}

bool
ErrorPlane::contains(const LinePoint &p) const
{
    return std::binary_search(lines.begin(), lines.end(), indexOf(p));
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
        std::map<std::uint32_t, std::size_t> counts;
        for (const auto &m : maps) {
            if (!m.hasPlane(level))
                continue;
            for (const std::uint32_t line : m.plane(level).errorLines())
                ++counts[line];
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
