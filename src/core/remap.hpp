/**
 * @file
 * Logical coordinate remapping (paper Sec 4.3, Figure 6).
 *
 * Challenges never carry physical error coordinates: both sides apply
 * a keyed bijection of the line-index space -- Map(K_A) on the server,
 * Unmap(K_A) on the client -- so an eavesdropper only ever observes
 * logical geometry. The bijection is a SipHash-keyed Feistel
 * permutation (crypto::FeistelPermutation); each voltage level gets an
 * independently derived subkey so planes permute independently. The
 * all-zero key yields the identity ("default") mapping used to
 * bootstrap the adaptive remap protocol of Sec 4.5.
 *
 * LogicalRemap is the whole-map view (the firmware client, the
 * attacks, the benches); LogicalPlane is the server's compact view of
 * one level. Both derive a level's permutation through
 * levelPermutation(), so the two sides cannot drift apart.
 */

#ifndef AUTH_CORE_REMAP_HPP
#define AUTH_CORE_REMAP_HPP

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/challenge.hpp"
#include "core/error_map.hpp"
#include "crypto/feistel.hpp"
#include "crypto/key.hpp"

namespace authenticache::core {

/**
 * The line-index permutation of voltage level @p level under map key
 * @p key (meaningless for the zero key, which maps nothing): keyed by
 * deriveSipHashKey(key, "remap-level-<level>") over @p lines lines.
 */
crypto::FeistelPermutation levelPermutation(const crypto::Key256 &key,
                                            VddMv level,
                                            std::uint64_t lines);

class LogicalRemap
{
  public:
    /**
     * @param key Map key K_A; Key256::zero() selects the identity.
     * @param geometry The coordinate domain.
     */
    LogicalRemap(const crypto::Key256 &key, const CacheGeometry &geometry);

    bool isIdentity() const { return identity; }
    const CacheGeometry &geometry() const { return geom; }
    const crypto::Key256 &key() const { return rootKey; }

    /** Physical -> logical coordinate at a voltage level. */
    LinePoint map(const LinePoint &p, VddMv level) const;

    /** Logical -> physical coordinate at a voltage level. */
    LinePoint unmap(const LinePoint &p, VddMv level) const;

    /**
     * The line-index permutation behind map/unmap at @p level, or
     * null for the identity key. Hot loops resolve it once and then
     * work in line-index space: unmap(p, level) is
     * geometry().pointOf(perm->unmap(geometry().lineIndex(p))).
     */
    const crypto::FeistelPermutation *permutation(VddMv level) const
    {
        return identity ? nullptr : &permFor(level);
    }

    /** Physical -> logical view of a whole error map. */
    ErrorMap mapErrorMap(const ErrorMap &physical) const;

    /** Map a challenge's points from logical to physical. */
    Challenge unmapChallenge(const Challenge &logical) const;

  private:
    const crypto::FeistelPermutation &permFor(VddMv level) const;

    crypto::Key256 rootKey;
    CacheGeometry geom;
    bool identity;
    // Lazily built per-level permutations (hot path: one level/auth).
    mutable std::map<VddMv, crypto::FeistelPermutation> perms;
};

/**
 * One voltage level of an error map in logical coordinates under a
 * (non-identity) map key, as the server evaluates challenges against
 * it: the level's permutation and its errors' logical line indices,
 * ascending -- the stream nearestDistancesLines reads. It holds what
 * LogicalRemap(key, geom).permutation(level) and
 * mapErrorMap(physical).plane(level).errorLines() would, without the
 * per-level std::map or the plane's geometry (only its way count).
 * The identity key has no view: there the logical plane is the
 * physical one. Immutable once built.
 */
class LogicalPlane
{
  public:
    /**
     * Throws std::out_of_range when @p physical has no such plane and
     * std::invalid_argument for Key256::zero().
     */
    LogicalPlane(const crypto::Key256 &key, const ErrorMap &physical,
                 VddMv level);

    VddMv level() const { return vdd; }

    /** The geometry's way count, which splits a line index. */
    std::uint32_t ways() const { return numWays; }

    const crypto::FeistelPermutation &permutation() const { return perm; }

    std::size_t errorCount() const { return lines.size(); }

    /** The errors' logical line indices, ascending. */
    std::span<const std::uint32_t> errorLines() const { return lines; }

  private:
    VddMv vdd;
    std::uint32_t numWays; // Fills what would be padding after vdd.
    crypto::FeistelPermutation perm;
    std::vector<std::uint32_t> lines;
};

} // namespace authenticache::core

#endif // AUTH_CORE_REMAP_HPP
