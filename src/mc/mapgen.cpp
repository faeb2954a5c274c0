#include "mc/mapgen.hpp"

namespace authenticache::mc {

core::ErrorPlane
randomPlane(const core::CacheGeometry &geom, std::size_t errors,
            util::Rng &rng)
{
    std::vector<core::LinePoint> points;
    points.reserve(errors);
    for (auto idx : rng.sampleDistinct(geom.lines(), errors))
        points.push_back(geom.pointOf(idx));
    core::ErrorPlane plane(geom);
    plane.addAll(points);
    return plane;
}

core::ErrorMap
randomErrorMap(const core::CacheGeometry &geom, core::VddMv level,
               std::size_t errors, util::Rng &rng)
{
    core::ErrorMap map(geom);
    map.plane(level) = randomPlane(geom, errors, rng);
    return map;
}

} // namespace authenticache::mc
