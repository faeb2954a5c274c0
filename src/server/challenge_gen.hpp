/**
 * @file
 * On-demand challenge generation from stored error maps (paper
 * Sec 4.2-4.3). Pairs come from the record's counter-indexed pair
 * streams in *physical* identity (pair_stream.hpp) and are mapped to
 * *logical* coordinates under the device's current map key, so a key
 * rotation cannot resurrect a pair.
 */

#ifndef AUTH_SERVER_CHALLENGE_GEN_HPP
#define AUTH_SERVER_CHALLENGE_GEN_HPP

#include <cstdint>

#include <vector>

#include "core/challenge.hpp"
#include "core/remap.hpp"
#include "server/database.hpp"
#include "server/journal.hpp"
#include "util/rng.hpp"

namespace authenticache::server {

/** A generated challenge plus the server's expected response. */
struct GeneratedChallenge
{
    core::Challenge challenge;     ///< Logical coordinates.
    core::Response expected;       ///< From the stored error map.
    core::VddMv level = 0;

    /**
     * The streams this generation advanced, with their counters after
     * it -- exactly what the durability journal must persist before
     * the challenge is disclosed (retire-before-reply).
     */
    std::vector<journal::StreamCounter> retired;
};

/**
 * Draws challenges from stored error maps. The generator itself holds
 * no per-device state: single-level pairs are a function of the
 * record's pair seed and stream counter alone, and the multi-level
 * level picks draw from the explicit util::Rng, so callers that keep
 * one RNG stream per device (the sharded session layer) can generate
 * challenges for distinct devices concurrently and deterministically.
 * The overloads without an Rng use the generator's own member stream
 * (the original single-threaded API, kept for tools and tests).
 */
class ChallengeGenerator
{
  public:
    explicit ChallengeGenerator(util::Rng rng);

    /**
     * Generate an n-bit single-voltage challenge for a device,
     * retiring the issued pairs. Throws std::runtime_error when the
     * level's stream cannot supply all n pairs; the record is then
     * left unchanged.
     *
     * @param record Device state (mutated: pairs consumed).
     * @param level Challenge voltage; must be a challenge level.
     * @param bits Challenge length.
     */
    GeneratedChallenge generate(DeviceRecord &record, core::VddMv level,
                                std::size_t bits);
    GeneratedChallenge generate(DeviceRecord &record, core::VddMv level,
                                std::size_t bits, util::Rng &rng);

    /**
     * Forwarder kept for callers that still pass an (empty)
     * core::EvalScratch; the scratch is unused. The expected response
     * is core::evaluate over the record's logical view of the level
     * (DeviceRecord::logicalPlane), or over the physical map under
     * the identity key, which draws with no permutation and builds no
     * view.
     */
    GeneratedChallenge generate(DeviceRecord &record, core::VddMv level,
                                std::size_t bits, util::Rng &rng,
                                core::EvalScratch &scratch);

    /**
     * Same, for a remap key-derivation challenge at a reserved level:
     * drawn under the *default* (identity) mapping, expected response
     * evaluated directly on the physical map.
     */
    GeneratedChallenge generateReserved(DeviceRecord &record,
                                        core::VddMv level,
                                        std::size_t bits);
    GeneratedChallenge generateReserved(DeviceRecord &record,
                                        core::VddMv level,
                                        std::size_t bits,
                                        util::Rng &rng);

    /**
     * Multi-voltage challenge (paper Eq 7 with V != V', left as
     * future work in the prototype): each endpoint is drawn at a
     * uniformly random challenge level, multiplying the pair space by
     * the square of the level count. The client minimizes regulator
     * transitions by sorting endpoints in descending Vdd (Sec 5.4);
     * see bench_ablation_multivdd for the residual cost.
     *
     * Each bit picks its two levels from @p rng; a same-level pick
     * takes that level's next pair, a pick of two levels takes the
     * next pair of that level pair's own stream.
     */
    GeneratedChallenge generateMultiLevel(DeviceRecord &record,
                                          std::size_t bits);
    GeneratedChallenge generateMultiLevel(DeviceRecord &record,
                                          std::size_t bits,
                                          util::Rng &rng);
    /** Forwarder; the scratch is unused (see generate()). */
    GeneratedChallenge generateMultiLevel(DeviceRecord &record,
                                          std::size_t bits,
                                          util::Rng &rng,
                                          core::EvalScratch &scratch);

  private:
    /**
     * Draw the challenge from the level's stream and retire its
     * pairs, mapped to logical lines by @p perm (null: identity);
     * expected response is NOT filled in (each public overload
     * evaluates through the view appropriate to its mapping).
     */
    static GeneratedChallenge draw(DeviceRecord &record,
                                   core::VddMv level, std::size_t bits,
                                   const crypto::FeistelPermutation *perm);

    /**
     * draw() under the identity mapping, with the expected response
     * evaluated on the physical map: reserved levels, and challenge
     * levels under the identity key.
     */
    static GeneratedChallenge drawPhysical(DeviceRecord &record,
                                           core::VddMv level,
                                           std::size_t bits);

    util::Rng ownRng; ///< Backs the legacy no-Rng overloads only.
};

} // namespace authenticache::server

#endif // AUTH_SERVER_CHALLENGE_GEN_HPP
