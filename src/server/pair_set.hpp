/**
 * @file
 * The consumed-pair store behind DeviceRecord (paper Sec 4.4).
 *
 * Every challenge bit is checked against, and added to, its device's
 * consumed set, so this set sits in the challenge hot path and grows
 * with the device's whole history. It is a flat open-addressing hash
 * set of 64-bit pair keys: one power-of-two slot array, linear
 * probing, a fixed (unseeded) mixer, and a load factor kept at or
 * below 1/2 -- 16 to 32 bytes per retired pair and no per-key heap
 * node. Slot value 0 marks an empty slot; key 0 (unreachable from the
 * generator, but legal in a replayed journal or a decoded snapshot)
 * is held in a separate flag rather than dropped.
 *
 * Only what DeviceRecord and storage need: insert, contains, size,
 * reserve, and the keys in sorted order for canonical snapshots.
 */

#ifndef AUTH_SERVER_PAIR_SET_HPP
#define AUTH_SERVER_PAIR_SET_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace authenticache::server {

class PairSet
{
  public:
    /** Add a key. @return false when it was already present. */
    bool
    insert(std::uint64_t key)
    {
        if (key == 0) {
            bool fresh = !hasZero;
            hasZero = true;
            return fresh;
        }
        if ((used + 1) * 2 > slots.size())
            rehash(std::max<std::size_t>(kMinSlots, slots.size() * 2));
        std::uint64_t &slot = slots[slotOf(slots, key)];
        if (slot == key)
            return false;
        slot = key;
        ++used;
        return true;
    }

    bool
    contains(std::uint64_t key) const
    {
        if (key == 0)
            return hasZero;
        if (slots.empty())
            return false;
        return slots[slotOf(slots, key)] == key;
    }

    std::size_t size() const { return used + (hasZero ? 1 : 0); }

    /** Size the table so `n` keys fit without another rehash. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = std::bit_ceil(std::max(n * 2, kMinSlots));
        if (want > slots.size())
            rehash(want);
    }

    /** Every key, ascending (the snapshot's canonical order). */
    std::vector<std::uint64_t>
    sortedKeys() const
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(size());
        if (hasZero)
            keys.push_back(0);
        for (std::uint64_t k : slots)
            if (k != 0)
                keys.push_back(k);
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    static constexpr std::size_t kMinSlots = 16;

    /** The key's slot, or the empty slot where it would go. */
    static std::size_t
    slotOf(const std::vector<std::uint64_t> &table, std::uint64_t key)
    {
        // MurmurHash3's 64-bit finalizer: pair keys put one line index
        // in each half, so every key bit must reach the low bits.
        std::uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        std::size_t mask = table.size() - 1;
        std::size_t i = static_cast<std::size_t>(h) & mask;
        while (table[i] != 0 && table[i] != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(std::size_t n_slots)
    {
        std::vector<std::uint64_t> old(n_slots, 0);
        old.swap(slots);
        for (std::uint64_t k : old)
            if (k != 0)
                slots[slotOf(slots, k)] = k;
    }

    std::vector<std::uint64_t> slots;
    std::size_t used = 0; // Non-zero keys in `slots`.
    bool hasZero = false;
};

} // namespace authenticache::server

#endif // AUTH_SERVER_PAIR_SET_HPP
