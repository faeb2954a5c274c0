#include "mc/experiments.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "core/nearest_scan.hpp"
#include "mc/mapgen.hpp"
#include "metrics/identifiability.hpp"
#include "util/thread_pool.hpp"

namespace authenticache::mc {

namespace {

// Stream-domain tags: each experiment derives its per-shard Rng
// streams from a distinct seed domain so experiments never share
// random sequences even under the same cfg.seed.
constexpr std::uint64_t kIntraTag = 0x1D7A;
constexpr std::uint64_t kInterTag = 0x147E6;
constexpr std::uint64_t kDistTag = 0xD157;
constexpr std::uint64_t kQualityTag = 0xA11A5;

/**
 * Random query points in the kernel's structure-of-arrays layout,
 * drawn in index order. Consecutive points (2i, 2i + 1) are the
 * endpoints a and b of challenge pair i. Every plane a sample is
 * evaluated on is answered by one kernel call over all the points.
 */
struct Queries
{
    std::vector<std::uint32_t> sets;
    std::vector<std::uint32_t> ways;

    Queries(const core::CacheGeometry &geom, std::size_t count,
            util::Rng &rng)
        : sets(count), ways(count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            const sim::LinePoint p =
                geom.pointOf(rng.nextBelow(geom.lines()));
            sets[i] = p.set;
            ways[i] = p.way;
        }
    }

    /** Nearest-error distance of every point; UINT32_MAX if none. */
    std::vector<std::uint32_t>
    distancesOn(const core::ErrorPlane &plane) const
    {
        std::vector<std::uint32_t> d(sets.size());
        core::nearestDistancesLines(plane.errorLines(),
                                    plane.geometry().ways(), sets.data(),
                                    ways.data(), sets.size(), d.data(),
                                    util::simdLevel());
        return d;
    }

    /** Response bit (Eq 8) of every pair on @p plane. */
    std::vector<bool>
    bitsOn(const core::ErrorPlane &plane) const
    {
        const auto d = distancesOn(plane);
        std::vector<bool> bits(d.size() / 2);
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = core::responseBitFromDistances(d[2 * i],
                                                     d[2 * i + 1]);
        return bits;
    }
};

/** Positions at which two equally long bit vectors differ. */
std::uint32_t
differing(const std::vector<bool> &x, const std::vector<bool> &y)
{
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
        n += x[i] != y[i];
    return n;
}

/**
 * Shard [0, count) across the configured execution width. Bodies
 * must derive all randomness from the shard index and write to
 * index-addressed slots; the pool guarantees nothing about order.
 */
void
shard(const ExperimentConfig &cfg, std::size_t count,
      const std::function<void(std::size_t)> &body)
{
    if (cfg.threads == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
    } else if (cfg.threads == 0) {
        util::ThreadPool::global().parallelFor(count, body);
    } else {
        util::ThreadPool local(cfg.threads);
        local.parallelFor(count, body);
    }
}

} // namespace

HammingSamples
hammingDistributions(const core::CacheGeometry &geom, std::size_t errors,
                     std::size_t bits, const NoiseProfile &noise,
                     const ExperimentConfig &cfg)
{
    HammingSamples out;
    out.bits = bits;
    out.intra.assign(cfg.maps * cfg.samplesPerMap, 0);
    out.inter.assign(cfg.maps * cfg.samplesPerMap, 0);

    shard(cfg, cfg.maps, [&](std::size_t m) {
        util::Rng rng = util::Rng::forStream(cfg.seed, m);
        core::ErrorPlane enrolled = randomPlane(geom, errors, rng);
        core::ErrorPlane other = randomPlane(geom, errors, rng);

        for (std::size_t s = 0; s < cfg.samplesPerMap; ++s) {
            core::ErrorPlane noisy = applyNoise(enrolled, noise, rng);
            Queries q(geom, 2 * bits, rng);
            const auto expected = q.bitsOn(enrolled);
            out.intra[m * cfg.samplesPerMap + s] =
                differing(expected, q.bitsOn(noisy));
            out.inter[m * cfg.samplesPerMap + s] =
                differing(expected, q.bitsOn(other));
        }
    });
    return out;
}

double
estimateIntraFlipProbability(const core::CacheGeometry &geom,
                             std::size_t errors,
                             const NoiseProfile &noise,
                             const ExperimentConfig &cfg)
{
    std::vector<std::uint64_t> flips(cfg.maps, 0);
    shard(cfg, cfg.maps, [&](std::size_t m) {
        util::Rng rng =
            util::Rng::forStream(cfg.seed ^ kIntraTag, m);
        core::ErrorPlane enrolled = randomPlane(geom, errors, rng);
        core::ErrorPlane noisy = applyNoise(enrolled, noise, rng);
        Queries q(geom, 2 * cfg.samplesPerMap, rng);
        flips[m] = differing(q.bitsOn(enrolled), q.bitsOn(noisy));
    });

    std::uint64_t total_flips = 0;
    for (auto f : flips)
        total_flips += f;
    return static_cast<double>(total_flips) /
           static_cast<double>(cfg.maps * cfg.samplesPerMap);
}

double
estimateInterFlipProbability(const core::CacheGeometry &geom,
                             std::size_t errors,
                             const ExperimentConfig &cfg)
{
    std::vector<std::uint64_t> flips(cfg.maps, 0);
    shard(cfg, cfg.maps, [&](std::size_t m) {
        util::Rng rng =
            util::Rng::forStream(cfg.seed ^ kInterTag, m);
        core::ErrorPlane chip_a = randomPlane(geom, errors, rng);
        core::ErrorPlane chip_b = randomPlane(geom, errors, rng);
        Queries q(geom, 2 * cfg.samplesPerMap, rng);
        flips[m] = differing(q.bitsOn(chip_a), q.bitsOn(chip_b));
    });

    std::uint64_t total_flips = 0;
    for (auto f : flips)
        total_flips += f;
    return static_cast<double>(total_flips) /
           static_cast<double>(cfg.maps * cfg.samplesPerMap);
}

NoiseTolerance
maxTolerableNoise(const core::CacheGeometry &geom, std::size_t errors,
                  std::size_t bits, bool injected, double target_rate,
                  const ExperimentConfig &cfg)
{
    // p_intra depends on the noise fraction but not the CRP size;
    // memoize evaluations so the bisection stays cheap.
    std::map<double, double> memo;
    auto p_intra_at = [&](double fraction) {
        auto it = memo.find(fraction);
        if (it != memo.end())
            return it->second;
        NoiseProfile profile;
        if (injected)
            profile.injectFraction = fraction;
        else
            profile.removeFraction = fraction;
        double p = estimateIntraFlipProbability(geom, errors, profile,
                                                cfg);
        memo[fraction] = p;
        return p;
    };

    const double p_inter =
        estimateInterFlipProbability(geom, errors, cfg);

    auto rate_at = [&](double fraction) {
        return metrics::misidentificationRate(bits, p_inter,
                                              p_intra_at(fraction));
    };

    // Removal is capped at 100% (cannot remove more errors than
    // enrolled); injection explored up to 400%.
    double lo = 0.0;
    double hi = injected ? 4.0 : 1.0;
    if (rate_at(hi) <= target_rate) {
        NoiseTolerance out;
        out.maxNoisePercent = hi * 100.0;
        out.pIntraAtMax = p_intra_at(hi);
        out.pInter = p_inter;
        out.rateAtMax = rate_at(hi);
        return out;
    }
    if (rate_at(lo) > target_rate) {
        NoiseTolerance out; // Even zero noise fails the target.
        out.pIntraAtMax = p_intra_at(lo);
        out.pInter = p_inter;
        out.rateAtMax = rate_at(lo);
        return out;
    }

    for (int iter = 0; iter < 24; ++iter) {
        double mid = (lo + hi) / 2.0;
        if (rate_at(mid) <= target_rate)
            lo = mid;
        else
            hi = mid;
    }

    NoiseTolerance out;
    out.maxNoisePercent = lo * 100.0;
    out.pIntraAtMax = p_intra_at(lo);
    out.pInter = p_inter;
    out.rateAtMax = rate_at(lo);
    return out;
}

double
averageNearestErrorDistance(const core::CacheGeometry &geom,
                            std::size_t errors,
                            const ExperimentConfig &cfg)
{
    std::vector<double> acc(cfg.maps, 0.0);
    shard(cfg, cfg.maps, [&](std::size_t m) {
        util::Rng rng = util::Rng::forStream(cfg.seed ^ kDistTag, m);
        core::ErrorPlane plane = randomPlane(geom, errors, rng);
        Queries q(geom, cfg.samplesPerMap, rng);
        double local = 0.0;
        for (std::uint32_t d : q.distancesOn(plane)) {
            // An empty plane is infinitely far, as in core::evaluate.
            local += d == std::numeric_limits<std::uint32_t>::max()
                         ? static_cast<double>(core::kInfiniteDistance)
                         : static_cast<double>(d);
        }
        acc[m] = local;
    });

    // Fold in map order so the floating-point sum is deterministic.
    double total = 0.0;
    for (auto a : acc)
        total += a;
    return total / static_cast<double>(cfg.maps * cfg.samplesPerMap);
}

QualityCell
aliasingUniformity(const core::CacheGeometry &geom, std::size_t errors,
                   std::size_t bits, const ExperimentConfig &cfg)
{
    // A population of chips answers shared challenges; aliasing is
    // the per-position ones-rate across chips, uniformity the
    // per-chip ones-rate across a response.
    const std::size_t chips = std::max<std::size_t>(2, cfg.maps);
    std::vector<core::ErrorPlane> planes(chips, core::ErrorPlane(geom));
    shard(cfg, chips, [&](std::size_t c) {
        util::Rng rng =
            util::Rng::forStream(cfg.seed ^ kQualityTag, c);
        planes[c] = randomPlane(geom, errors, rng);
    });

    const std::size_t challenges =
        std::max<std::size_t>(1, cfg.samplesPerMap / bits);

    // Bit-aliasing: shared challenge bits evaluated across the whole
    // chip population (Eq 6). One Rng stream per challenge so the
    // challenge set is independent of the chip population above.
    std::vector<std::uint64_t> aliasing(challenges, 0);
    shard(cfg, challenges, [&](std::size_t ch) {
        util::Rng rng = util::Rng::forStream(
            cfg.seed ^ kQualityTag, chips + ch);
        Queries q(geom, 2 * bits, rng);
        std::uint64_t ones = 0;
        for (const auto &plane : planes) {
            const auto response = q.bitsOn(plane);
            ones += std::count(response.begin(), response.end(), true);
        }
        aliasing[ch] = ones;
    });

    // Uniformity: each chip answers its own random challenges (Eq 5),
    // spending the same per-chip sample budget as the aliasing sweep
    // (the sequential seed code drew a single challenge per chip and
    // was needlessly noisy).
    std::vector<std::uint64_t> uniform(chips, 0);
    shard(cfg, chips, [&](std::size_t c) {
        util::Rng rng = util::Rng::forStream(
            cfg.seed ^ kQualityTag, chips + challenges + c);
        // All of the chip's challenges, drawn back to back.
        Queries q(geom, 2 * challenges * bits, rng);
        const auto response = q.bitsOn(planes[c]);
        uniform[c] = std::count(response.begin(), response.end(), true);
    });

    std::uint64_t aliasing_ones = 0;
    for (auto a : aliasing)
        aliasing_ones += a;
    std::uint64_t uniform_ones = 0;
    for (auto u : uniform)
        uniform_ones += u;

    QualityCell out;
    out.bitAliasingPercent =
        static_cast<double>(aliasing_ones) /
        static_cast<double>(challenges * bits * chips) * 100.0;
    out.uniformityPercent =
        static_cast<double>(uniform_ones) /
        static_cast<double>(chips * challenges * bits) * 100.0;
    return out;
}

} // namespace authenticache::mc
