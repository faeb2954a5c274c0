#include "server/challenge_gen.hpp"

#include <algorithm>
#include <stdexcept>

namespace authenticache::server {

ChallengeGenerator::ChallengeGenerator(util::Rng rng_) : ownRng(rng_)
{
}

GeneratedChallenge
ChallengeGenerator::drawWithRemap(DeviceRecord &record,
                                  core::VddMv level, std::size_t bits,
                                  const core::LogicalRemap &remap,
                                  util::Rng &rng)
{
    const auto &geom = record.physicalMap().geometry();
    if (!record.physicalMap().hasPlane(level))
        throw std::invalid_argument(
            "ChallengeGenerator: no error map at that level");

    GeneratedChallenge out;
    out.level = level;
    out.challenge.bits.reserve(bits);
    out.retired.reserve(bits);

    // Retire-before-use: each drawn pair is checked against the
    // consumed set by its physical identity.
    std::size_t attempts = 0;
    const std::size_t max_attempts = bits * 64 + 1024;
    while (out.challenge.bits.size() < bits) {
        if (++attempts > max_attempts) {
            throw std::runtime_error(
                "ChallengeGenerator: fresh pair supply exhausted");
        }
        std::uint64_t la = rng.nextBelow(geom.lines());
        std::uint64_t lb = rng.nextBelow(geom.lines());
        if (la == lb)
            continue;

        sim::LinePoint logical_a = geom.pointOf(la);
        sim::LinePoint logical_b = geom.pointOf(lb);
        std::uint64_t phys_a =
            geom.lineIndex(remap.unmap(logical_a, level));
        std::uint64_t phys_b =
            geom.lineIndex(remap.unmap(logical_b, level));
        if (!record.consumePair(level, phys_a, phys_b))
            continue; // Already used (in either order); redraw.
        out.retired.push_back(
            journal::RetiredPair{level, level, phys_a, phys_b});

        core::ChallengeBit bit;
        bit.a = core::ChallengePoint{logical_a, level};
        bit.b = core::ChallengePoint{logical_b, level};
        out.challenge.bits.push_back(bit);
    }
    return out;
}

GeneratedChallenge
ChallengeGenerator::generate(DeviceRecord &record, core::VddMv level,
                             std::size_t bits, util::Rng &rng)
{
    const auto &levels = record.challengeLevels();
    if (std::find(levels.begin(), levels.end(), level) == levels.end())
        throw std::invalid_argument(
            "ChallengeGenerator: not a challenge level");
    GeneratedChallenge out = drawWithRemap(
        record, level, bits, record.logicalRemap(), rng);
    out.expected = core::evaluate(record.logicalMap(), out.challenge);
    return out;
}

GeneratedChallenge
ChallengeGenerator::generate(DeviceRecord &record, core::VddMv level,
                             std::size_t bits, util::Rng &rng,
                             core::EvalScratch &)
{
    return generate(record, level, bits, rng);
}

GeneratedChallenge
ChallengeGenerator::generate(DeviceRecord &record, core::VddMv level,
                             std::size_t bits)
{
    return generate(record, level, bits, ownRng);
}

GeneratedChallenge
ChallengeGenerator::generateMultiLevel(DeviceRecord &record,
                                       std::size_t bits,
                                       util::Rng &rng)
{
    const auto &levels = record.challengeLevels();
    if (levels.size() < 2)
        throw std::invalid_argument(
            "generateMultiLevel: need >= 2 challenge levels");
    const auto &geom = record.physicalMap().geometry();
    for (auto level : levels) {
        if (!record.physicalMap().hasPlane(level))
            throw std::invalid_argument(
                "generateMultiLevel: missing error map plane");
    }

    const core::LogicalRemap &remap = record.logicalRemap();

    GeneratedChallenge out;
    out.level = 0; // Mixed levels; no single value applies.
    out.challenge.bits.reserve(bits);

    std::size_t attempts = 0;
    const std::size_t max_attempts = bits * 64 + 1024;
    while (out.challenge.bits.size() < bits) {
        if (++attempts > max_attempts) {
            throw std::runtime_error(
                "generateMultiLevel: fresh pair supply exhausted");
        }
        core::VddMv level_a = levels[rng.nextBelow(levels.size())];
        core::VddMv level_b = levels[rng.nextBelow(levels.size())];
        std::uint64_t la = rng.nextBelow(geom.lines());
        std::uint64_t lb = rng.nextBelow(geom.lines());
        if (la == lb && level_a == level_b)
            continue;

        sim::LinePoint logical_a = geom.pointOf(la);
        sim::LinePoint logical_b = geom.pointOf(lb);
        std::uint64_t phys_a =
            geom.lineIndex(remap.unmap(logical_a, level_a));
        std::uint64_t phys_b =
            geom.lineIndex(remap.unmap(logical_b, level_b));
        if (!record.consumeMixedPair(level_a, phys_a, level_b,
                                     phys_b))
            continue;
        out.retired.push_back(journal::RetiredPair{level_a, level_b,
                                                   phys_a, phys_b});

        core::ChallengeBit bit;
        bit.a = core::ChallengePoint{logical_a, level_a};
        bit.b = core::ChallengePoint{logical_b, level_b};
        out.challenge.bits.push_back(bit);
    }

    out.expected = core::evaluate(record.logicalMap(), out.challenge);
    return out;
}

GeneratedChallenge
ChallengeGenerator::generateMultiLevel(DeviceRecord &record,
                                       std::size_t bits,
                                       util::Rng &rng,
                                       core::EvalScratch &)
{
    return generateMultiLevel(record, bits, rng);
}

GeneratedChallenge
ChallengeGenerator::generateMultiLevel(DeviceRecord &record,
                                       std::size_t bits)
{
    return generateMultiLevel(record, bits, ownRng);
}

GeneratedChallenge
ChallengeGenerator::generateReserved(DeviceRecord &record,
                                     core::VddMv level,
                                     std::size_t bits, util::Rng &rng)
{
    const auto &levels = record.reservedLevels();
    if (std::find(levels.begin(), levels.end(), level) == levels.end())
        throw std::invalid_argument(
            "ChallengeGenerator: not a reserved level");
    // Reserved-level challenges use the identity mapping, so the
    // expected response is evaluated directly on the physical map
    // (no logical copy was ever needed here).
    core::LogicalRemap identity(crypto::Key256::zero(),
                                record.physicalMap().geometry());
    GeneratedChallenge out =
        drawWithRemap(record, level, bits, identity, rng);
    out.expected =
        core::evaluate(record.physicalMap(), out.challenge);
    return out;
}

GeneratedChallenge
ChallengeGenerator::generateReserved(DeviceRecord &record,
                                     core::VddMv level,
                                     std::size_t bits)
{
    return generateReserved(record, level, bits, ownRng);
}

} // namespace authenticache::server
