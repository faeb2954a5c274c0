#include "core/remap.hpp"

#include <algorithm>
#include <stdexcept>

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
        std::vector<LinePoint> mapped;
        for (const auto &e : physical.plane(level).errors())
            mapped.push_back(map(e, level));
        logical.addSweep(level, mapped);
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

namespace {

/** @p key, refused when it is the identity (which has no view). */
const crypto::Key256 &
viewKey(const crypto::Key256 &key)
{
    if (key == crypto::Key256::zero())
        throw std::invalid_argument(
            "LogicalPlane: the identity key has no logical view");
    return key;
}

} // namespace

LogicalPlane::LogicalPlane(const crypto::Key256 &key,
                           const ErrorMap &physical, VddMv level)
    : vdd(level), numWays(physical.geometry().ways()),
      perm(levelPermutation(viewKey(key), level,
                            physical.geometry().lines()))
{
    // A bijection maps distinct lines to distinct lines: sorting is
    // all it takes.
    const std::span<const std::uint32_t> physicalLines =
        physical.plane(level).errorLines();
    lines.reserve(physicalLines.size());
    for (const std::uint32_t line : physicalLines)
        lines.push_back(static_cast<std::uint32_t>(perm.map(line)));
    std::sort(lines.begin(), lines.end());
}

} // namespace authenticache::core
