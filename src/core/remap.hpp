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
 */

#ifndef AUTH_CORE_REMAP_HPP
#define AUTH_CORE_REMAP_HPP

#include <cstdint>
#include <map>

#include "core/challenge.hpp"
#include "core/error_map.hpp"
#include "crypto/feistel.hpp"
#include "crypto/key.hpp"

namespace authenticache::core {

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

} // namespace authenticache::core

#endif // AUTH_CORE_REMAP_HPP
