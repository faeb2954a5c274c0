#include "server/challenge_gen.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace authenticache::server {

ChallengeGenerator::ChallengeGenerator(util::Rng rng_) : ownRng(rng_)
{
}

namespace {

/**
 * One stream's draws within a challenge. The counter advances on a
 * copy and reaches the record only through commit(), so a challenge
 * that runs out of pairs retires nothing.
 */
struct StreamDraw
{
    StreamDraw(const DeviceRecord &record, PairStream &s)
        : stream(s),
          perm(record.streamDomain(s.levelA, s.levelB),
               record.pairSeed(), s.levelA, s.levelB),
          next(s.counter)
    {
    }

    /** The next fresh rank; throws once the domain is spent. */
    std::uint64_t
    draw()
    {
        for (;;) {
            if (next >= perm.domain())
                throw std::runtime_error(
                    "ChallengeGenerator: fresh pair supply exhausted");
            const std::uint64_t rank = perm.map(next++);
            if (!std::binary_search(stream.frozen.begin(),
                                    stream.frozen.end(), rank))
                return rank;
        }
    }

    /** Store the advanced counter and note it for the journal. */
    void
    commit(std::vector<journal::StreamCounter> &retired)
    {
        if (next != stream.counter)
            retired.push_back(
                {stream.levelA, stream.levelB, stream.counter = next});
    }

    PairStream &stream;
    PairPermutation perm;
    std::uint64_t next;
};

} // namespace

GeneratedChallenge
ChallengeGenerator::draw(DeviceRecord &record, core::VddMv level,
                         std::size_t bits,
                         const crypto::FeistelPermutation *perm)
{
    const auto &geom = record.physicalMap().geometry();
    if (!record.physicalMap().hasPlane(level))
        throw std::invalid_argument(
            "ChallengeGenerator: no error map at that level");

    GeneratedChallenge out;
    out.level = level;
    out.challenge.bits.resize(bits);

    StreamDraw stream(record, record.pairStream(level, level));
    for (auto &bit : out.challenge.bits) {
        const std::uint64_t rank = stream.draw();
        auto [a, b] = unrankPair(rank);
        if (stream.perm.swapEnds(rank))
            std::swap(a, b);
        if (perm != nullptr) {
            a = perm->map(a);
            b = perm->map(b);
        }
        bit.a = core::ChallengePoint{geom.pointOf(a), level};
        bit.b = core::ChallengePoint{geom.pointOf(b), level};
    }
    stream.commit(out.retired);
    return out;
}

GeneratedChallenge
ChallengeGenerator::drawPhysical(DeviceRecord &record, core::VddMv level,
                                 std::size_t bits)
{
    GeneratedChallenge out = draw(record, level, bits, nullptr);
    out.expected = core::evaluate(record.physicalMap(), out.challenge);
    return out;
}

GeneratedChallenge
ChallengeGenerator::generate(DeviceRecord &record, core::VddMv level,
                             std::size_t bits, util::Rng &)
{
    const auto &levels = record.challengeLevels();
    if (std::find(levels.begin(), levels.end(), level) == levels.end())
        throw std::invalid_argument(
            "ChallengeGenerator: not a challenge level");
    // The identity key has no logical view: the physical plane is the
    // logical one.
    if (record.mapKey() == crypto::Key256::zero())
        return drawPhysical(record, level, bits);
    const core::LogicalPlane *view = &record.logicalPlane(level);
    GeneratedChallenge out =
        draw(record, level, bits, &view->permutation());
    out.expected = core::evaluate({&view, 1}, out.challenge);
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

    // One logical view per level (none under the identity key, whose
    // logical planes are the physical ones) and one draw per level
    // pair i <= j, resolved once. Every stream exists before any is
    // referenced, so creating one cannot move another.
    const bool identity = record.mapKey() == crypto::Key256::zero();
    const std::size_t nl = levels.size();
    std::vector<const core::LogicalPlane *> views;
    views.reserve(nl);
    for (auto level : levels) {
        if (!identity)
            views.push_back(&record.logicalPlane(level));
        for (auto other : levels)
            record.pairStream(level, other);
    }
    std::vector<StreamDraw> draws;
    draws.reserve(nl * (nl + 1) / 2);
    for (std::size_t i = 0; i < nl; ++i)
        for (std::size_t j = i; j < nl; ++j)
            draws.emplace_back(record,
                               record.pairStream(levels[i], levels[j]));

    GeneratedChallenge out;
    out.level = 0; // Mixed levels; no single value applies.
    out.challenge.bits.resize(bits);
    const std::uint64_t lines = geom.lines();
    for (auto &bit : out.challenge.bits) {
        const std::size_t ia = rng.nextBelow(nl);
        const std::size_t ib = rng.nextBelow(nl);
        const std::size_t i = std::min(ia, ib), j = std::max(ia, ib);
        StreamDraw &stream = draws[i * (2 * nl - i + 1) / 2 + (j - i)];
        const std::uint64_t rank = stream.draw();

        // End a sits at the lower level of a mixed stream.
        std::size_t la = i, lb = j;
        if (levels[la] > levels[lb])
            std::swap(la, lb);
        std::uint64_t a, b;
        if (la == lb)
            std::tie(a, b) = unrankPair(rank);
        else
            std::tie(a, b) = std::pair(rank / lines, rank % lines);
        if (stream.perm.swapEnds(rank)) {
            std::swap(la, lb);
            std::swap(a, b);
        }
        if (!identity) {
            a = views[la]->permutation().map(a);
            b = views[lb]->permutation().map(b);
        }
        bit.a = core::ChallengePoint{geom.pointOf(a), levels[la]};
        bit.b = core::ChallengePoint{geom.pointOf(b), levels[lb]};
    }
    for (auto &stream : draws)
        stream.commit(out.retired);

    out.expected = identity
                       ? core::evaluate(record.physicalMap(), out.challenge)
                       : core::evaluate(views, out.challenge);
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
                                     std::size_t bits, util::Rng &)
{
    const auto &levels = record.reservedLevels();
    if (std::find(levels.begin(), levels.end(), level) == levels.end())
        throw std::invalid_argument(
            "ChallengeGenerator: not a reserved level");
    // Reserved-level challenges use the identity mapping.
    return drawPhysical(record, level, bits);
}

GeneratedChallenge
ChallengeGenerator::generateReserved(DeviceRecord &record,
                                     core::VddMv level,
                                     std::size_t bits)
{
    return generateReserved(record, level, bits, ownRng);
}

} // namespace authenticache::server
