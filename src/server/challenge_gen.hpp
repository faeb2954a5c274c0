/**
 * @file
 * On-demand challenge generation from stored error maps (paper
 * Sec 4.2-4.3). Challenges are drawn in *logical* coordinates under
 * the device's current map key; consumed pairs are retired by their
 * *physical* identity so a key rotation cannot resurrect a pair.
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
     * The pairs this generation consumed, in *physical* identity --
     * exactly what the durability journal must persist before the
     * challenge is disclosed (retire-before-reply).
     */
    std::vector<journal::RetiredPair> retired;
};

/**
 * Draws challenges from stored error maps. The generator itself holds
 * no per-device state: every overload taking an explicit util::Rng
 * draws all randomness from it, so callers that keep one RNG stream
 * per device (the sharded session layer) can generate challenges for
 * distinct devices concurrently and deterministically. The overloads
 * without an Rng use the generator's own member stream (the original
 * single-threaded API, kept for tools and tests).
 */
class ChallengeGenerator
{
  public:
    explicit ChallengeGenerator(util::Rng rng);

    /**
     * Generate an n-bit single-voltage challenge for a device,
     * retiring the consumed pairs. Throws std::runtime_error when the
     * device's fresh-pair supply at the chosen level is exhausted.
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
     * Forwarder kept for callers that still pass evaluation scratch;
     * the scratch is unused. The expected response is always the SIMD
     * plane scan (core::evaluate) over the record's cached logical
     * map, which beats the indexed path below ~500 errors per plane.
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
     * Pair retirement is per unordered physical line pair *per level
     * pair*, consistent with the single-level rule.
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
     * Draw the challenge and retire its pairs; expected response is
     * NOT filled in (each public overload evaluates through the view
     * appropriate to its remap).
     */
    static GeneratedChallenge
    drawWithRemap(DeviceRecord &record, core::VddMv level,
                  std::size_t bits, const core::LogicalRemap &remap,
                  util::Rng &rng);

    util::Rng ownRng; ///< Backs the legacy no-Rng overloads only.
};

} // namespace authenticache::server

#endif // AUTH_SERVER_CHALLENGE_GEN_HPP
