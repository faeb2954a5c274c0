#include "core/remap.hpp"

#include <algorithm>

namespace authenticache::core {

crypto::FeistelPermutation
levelPermutation(const crypto::Key256 &key, VddMv level,
                 std::uint64_t lines)
{
    return crypto::FeistelPermutation(
        crypto::deriveSipHashKey(key,
                                 "remap-level-" + std::to_string(level)),
        lines);
}

LogicalRemap::LogicalRemap(const crypto::Key256 &key,
                           const CacheGeometry &geometry)
    : rootKey(key), geom(geometry), identity(key == crypto::Key256::zero())
{
}

const crypto::FeistelPermutation &
LogicalRemap::permFor(VddMv level) const
{
    auto it = perms.find(level);
    if (it == perms.end())
        it = perms
                 .emplace(level,
                          levelPermutation(rootKey, level, geom.lines()))
                 .first;
    return it->second;
}

LinePoint
LogicalRemap::map(const LinePoint &p, VddMv level) const
{
    if (identity)
        return p;
    return geom.pointOf(permFor(level).map(geom.lineIndex(p)));
}

LinePoint
LogicalRemap::unmap(const LinePoint &p, VddMv level) const
{
    if (identity)
        return p;
    return geom.pointOf(permFor(level).unmap(geom.lineIndex(p)));
}

ErrorMap
LogicalRemap::mapErrorMap(const ErrorMap &physical) const
{
    if (identity)
        return physical;
    ErrorMap logical(geom);
    for (VddMv level : physical.levels()) {
        const ErrorPlane &phys = physical.plane(level);
        ErrorPlane &log = logical.plane(level);
        for (const auto &e : phys.errors())
            log.add(map(e, level));
    }
    return logical;
}

Challenge
LogicalRemap::unmapChallenge(const Challenge &logical) const
{
    if (identity)
        return logical;
    Challenge physical;
    physical.bits.reserve(logical.size());
    for (const auto &bit : logical.bits) {
        ChallengeBit out;
        out.a = ChallengePoint{unmap(bit.a.line, bit.a.vddMv),
                               bit.a.vddMv};
        out.b = ChallengePoint{unmap(bit.b.line, bit.b.vddMv),
                               bit.b.vddMv};
        physical.bits.push_back(out);
    }
    return physical;
}

LogicalPlane::LogicalPlane(const crypto::Key256 &key,
                           const ErrorMap &physical, VddMv level)
    : vdd(level)
{
    const ErrorPlane &plane = physical.plane(level);
    const std::size_t n = plane.errorCount();
    coords.resize(2 * n);
    if (key == crypto::Key256::zero()) {
        std::copy_n(plane.errorSets().data(), n, coords.data());
        std::copy_n(plane.errorWays().data(), n, coords.data() + n);
        return;
    }
    const CacheGeometry &geom = physical.geometry();
    perm.emplace(levelPermutation(key, level, geom.lines()));
    // Line-index order is (set, way) order.
    std::vector<std::uint64_t> lines;
    lines.reserve(n);
    for (const auto &e : plane.errors())
        lines.push_back(perm->map(geom.lineIndex(e)));
    std::sort(lines.begin(), lines.end());
    for (std::size_t i = 0; i < n; ++i) {
        const LinePoint p = geom.pointOf(lines[i]);
        coords[i] = p.set;
        coords[n + i] = p.way;
    }
}

} // namespace authenticache::core
