#include "mc/noise.hpp"

#include <cmath>

namespace authenticache::mc {

core::ErrorPlane
applyNoise(const core::ErrorPlane &enrolled, const NoiseProfile &profile,
           util::Rng &rng)
{
    const auto &geom = enrolled.geometry();
    core::ErrorPlane noisy = enrolled;

    const double base = static_cast<double>(enrolled.errorCount());

    // Removal: mask a random subset of enrolled errors.
    auto n_remove = static_cast<std::size_t>(
        std::llround(base * profile.removeFraction));
    n_remove = std::min(n_remove, enrolled.errorCount());
    if (n_remove > 0) {
        auto victims =
            rng.sampleDistinct(enrolled.errorCount(), n_remove);
        for (auto v : victims)
            noisy.remove(enrolled.errors()[v]);
    }

    // Injection: add new errors at random error-free lines.
    auto n_inject = static_cast<std::size_t>(
        std::llround(base * profile.injectFraction));
    std::size_t added = 0;
    while (added < n_inject) {
        auto idx = rng.nextBelow(geom.lines());
        auto p = geom.pointOf(idx);
        if (!noisy.contains(p)) {
            noisy.add(p);
            ++added;
        }
    }
    return noisy;
}

core::ErrorMap
applyNoise(const core::ErrorMap &enrolled, const NoiseProfile &profile,
           util::Rng &rng)
{
    core::ErrorMap out(enrolled.geometry());
    for (auto level : enrolled.levels()) {
        out.plane(level) = applyNoise(enrolled.plane(level), profile, rng);
    }
    return out;
}

} // namespace authenticache::mc
