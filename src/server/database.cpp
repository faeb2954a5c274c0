#include "server/database.hpp"

#include <algorithm>

#include "core/crp.hpp"

namespace authenticache::server {

DeviceRecord::DeviceRecord(std::uint64_t device_id,
                           core::ErrorMap physical_map,
                           std::vector<core::VddMv> challenge_levels,
                           std::vector<core::VddMv> reserved_levels)
    : id(device_id),
      map(std::move(physical_map)),
      authLevels(std::move(challenge_levels)),
      remapLevels(std::move(reserved_levels))
{
    // A level must not serve both roles: remap responses are secret.
    for (auto level : authLevels) {
        if (std::find(remapLevels.begin(), remapLevels.end(), level) !=
            remapLevels.end()) {
            throw std::invalid_argument(
                "DeviceRecord: level both challenge and reserved");
        }
    }
}

const core::LogicalRemap &
DeviceRecord::logicalRemap() const
{
    if (!remapCache)
        remapCache = std::make_shared<core::LogicalRemap>(
            key, map.geometry());
    return *remapCache;
}

const core::ErrorMap &
DeviceRecord::logicalMap() const
{
    const core::LogicalRemap &remap = logicalRemap();
    if (remap.isIdentity())
        return map;
    if (!logicalCache)
        logicalCache = std::make_shared<core::ErrorMap>(
            remap.mapErrorMap(map));
    return *logicalCache;
}

std::uint64_t
DeviceRecord::pairKey(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t lo = std::min(a, b);
    std::uint64_t hi = std::max(a, b);
    // Exact encoding: line indices are < 2^32 for any realistic cache.
    return (lo << 32) | hi;
}

bool
DeviceRecord::consumePair(core::VddMv level, std::uint64_t line_a,
                          std::uint64_t line_b)
{
    return consumed[level].insert(pairKey(line_a, line_b));
}

bool
DeviceRecord::pairAvailable(core::VddMv level, std::uint64_t line_a,
                            std::uint64_t line_b) const
{
    auto it = consumed.find(level);
    if (it == consumed.end())
        return true;
    return !it->second.contains(pairKey(line_a, line_b));
}

bool
DeviceRecord::consumeMixedPair(core::VddMv level_a,
                               std::uint64_t line_a,
                               core::VddMv level_b,
                               std::uint64_t line_b)
{
    if (level_a == level_b)
        return consumePair(level_a, line_a, line_b);
    std::array<std::uint64_t, 4> key_a{level_a, line_a, level_b,
                                       line_b};
    std::array<std::uint64_t, 4> key_b{level_b, line_b, level_a,
                                       line_a};
    const auto &canonical = key_a < key_b ? key_a : key_b;
    return mixed.insert(canonical).second;
}

std::size_t
DeviceRecord::consumedCount(core::VddMv level) const
{
    auto it = consumed.find(level);
    return it == consumed.end() ? 0 : it->second.size();
}

std::uint64_t
DeviceRecord::remainingPairs(core::VddMv level) const
{
    return core::possibleCrps(map.geometry().lines()) -
           consumedCount(level);
}

DeviceRecord &
EnrollmentDatabase::enroll(DeviceRecord record)
{
    std::uint64_t id = record.deviceId();
    auto [it, inserted] = records.emplace(id, std::move(record));
    if (!inserted)
        throw std::invalid_argument(
            "EnrollmentDatabase: device already enrolled");
    return it->second;
}

bool
EnrollmentDatabase::contains(std::uint64_t device_id) const
{
    return records.count(device_id) > 0;
}

DeviceRecord &
EnrollmentDatabase::at(std::uint64_t device_id)
{
    auto it = records.find(device_id);
    if (it == records.end())
        throw std::out_of_range("EnrollmentDatabase: unknown device");
    return it->second;
}

const DeviceRecord &
EnrollmentDatabase::at(std::uint64_t device_id) const
{
    auto it = records.find(device_id);
    if (it == records.end())
        throw std::out_of_range("EnrollmentDatabase: unknown device");
    return it->second;
}

} // namespace authenticache::server
