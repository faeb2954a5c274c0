#include "attack/model_attack.hpp"

#include <algorithm>
#include <cmath>

namespace authenticache::attack {

DistanceFieldModel::DistanceFieldModel(const core::CacheGeometry &geom_,
                                       const ModelParams &params_)
    : geom(geom_), params(params_), field(geom_.lines(), 0.0f)
{
}

double
DistanceFieldModel::estimate(const sim::LinePoint &p) const
{
    return field[geom.lineIndex(p)];
}

double
DistanceFieldModel::fieldAt(const sim::LinePoint &p) const
{
    return estimate(p);
}

bool
DistanceFieldModel::predict(const core::ChallengeBit &bit) const
{
    // Mirrors Eq 8 semantics: 1 iff A is strictly farther.
    return estimate(bit.a.line) > estimate(bit.b.line);
}

void
DistanceFieldModel::adjust(const sim::LinePoint &p, double delta)
{
    // Spread the update along the set axis with linear decay: the
    // true distance field is 1-Lipschitz, so neighbors move together.
    const std::int64_t radius = params.kernelSets;
    const std::int64_t sets = geom.sets();
    for (std::int64_t ds = -radius; ds <= radius; ++ds) {
        std::int64_t set = static_cast<std::int64_t>(p.set) + ds;
        if (set < 0 || set >= sets)
            continue;
        double weight = 1.0 - static_cast<double>(std::abs(ds)) /
                                  (static_cast<double>(radius) + 1.0);
        std::uint64_t idx = geom.lineIndex(
            {static_cast<std::uint32_t>(set), p.way});
        double updated = field[idx] + delta * weight;
        field[idx] = static_cast<float>(std::max(0.0, updated));
    }
}

void
DistanceFieldModel::train(const core::ChallengeBit &bit, bool response)
{
    ++nObserved;
    double da = estimate(bit.a.line);
    double db = estimate(bit.b.line);

    // response == 0: d(A) <= d(B); response == 1: d(A) > d(B).
    if (!response) {
        double violation = da - db + params.margin;
        if (violation > 0.0) {
            double step = params.learningRate * violation / 2.0;
            adjust(bit.a.line, -step);
            adjust(bit.b.line, +step);
        }
    } else {
        double violation = db - da + params.margin;
        if (violation > 0.0) {
            double step = params.learningRate * violation / 2.0;
            adjust(bit.a.line, +step);
            adjust(bit.b.line, -step);
        }
    }
}

double
DistanceFieldModel::accuracy(
    const std::vector<core::ChallengeBit> &bits,
    const std::vector<bool> &responses) const
{
    if (bits.empty() || bits.size() != responses.size())
        return 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        correct += predict(bits[i]) == responses[i];
    return static_cast<double>(correct) /
           static_cast<double>(bits.size());
}

void
DistanceFieldModel::reset()
{
    std::fill(field.begin(), field.end(), 0.0f);
    nObserved = 0;
}

namespace {

/** @p n random pairs, endpoint a then b of each. */
std::vector<core::ChallengeBit>
randomPairs(const core::CacheGeometry &geom, std::size_t n,
            util::Rng &rng)
{
    std::vector<core::ChallengeBit> pairs(n);
    for (auto &bit : pairs) {
        bit.a = core::ChallengePoint{
            geom.pointOf(rng.nextBelow(geom.lines())), 0};
        bit.b = core::ChallengePoint{
            geom.pointOf(rng.nextBelow(geom.lines())), 0};
    }
    return pairs;
}

/**
 * Ground-truth response bits of @p pairs: the server's evaluation
 * (core::evaluate, one kernel call over all the endpoints).
 */
std::vector<bool>
truthBits(const core::ErrorMap &map,
          const std::vector<core::ChallengeBit> &pairs)
{
    const core::Response response = core::evaluate(map, {pairs});
    std::vector<bool> truth(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        truth[i] = response.get(i);
    return truth;
}

} // namespace

std::vector<LearningCurvePoint>
runModelAttack(const core::ErrorPlane &plane, std::uint64_t total_crps,
               std::size_t checkpoints, std::size_t validation_size,
               const ModelParams &params, util::Rng &rng)
{
    const auto &geom = plane.geometry();
    DistanceFieldModel model(geom, params);
    // The victim's plane at level 0, the level randomPairs draws at.
    core::ErrorMap map(geom);
    map.plane(0) = plane;

    // Fixed held-out validation set.
    const auto val_bits = randomPairs(geom, validation_size, rng);
    const auto val_truth = truthBits(map, val_bits);

    std::vector<LearningCurvePoint> curve;
    curve.push_back({0, model.accuracy(val_bits, val_truth)});

    const std::uint64_t per_checkpoint =
        std::max<std::uint64_t>(1, total_crps / checkpoints);
    std::uint64_t trained = 0;
    while (trained < total_crps) {
        std::uint64_t target =
            std::min(total_crps, trained + per_checkpoint);
        // train() draws no randomness, so drawing the checkpoint's
        // pairs up front keeps the RNG stream of one pair at a time.
        const auto pairs = randomPairs(geom, target - trained, rng);
        const auto truth = truthBits(map, pairs);
        for (std::size_t i = 0; i < pairs.size(); ++i)
            model.train(pairs[i], truth[i]);
        trained = target;
        curve.push_back(
            {trained, model.accuracy(val_bits, val_truth)});
    }
    return curve;
}

} // namespace authenticache::attack
