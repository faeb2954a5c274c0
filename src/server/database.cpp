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
    // Nor appear twice: each level pair must map to one pair stream.
    for (const auto *levels : {&authLevels, &remapLevels}) {
        for (auto it = levels->begin(); it != levels->end(); ++it) {
            if (std::find(it + 1, levels->end(), *it) != levels->end())
                throw std::invalid_argument("DeviceRecord: duplicate level");
        }
    }
}

const core::LogicalPlane &
DeviceRecord::logicalPlane(core::VddMv level) const
{
    const auto at = std::find(authLevels.begin(), authLevels.end(), level);
    if (at == authLevels.end())
        throw std::invalid_argument("DeviceRecord: not a challenge level");
    if (!map.hasPlane(level))
        throw std::invalid_argument(
            "DeviceRecord: no error map at that level");
    views.resize(authLevels.size());
    auto &view = views[at - authLevels.begin()];
    if (!view)
        view = std::make_shared<const core::LogicalPlane>(key, map, level);
    return *view;
}

std::uint64_t
DeviceRecord::streamDomain(core::VddMv level_a,
                           core::VddMv level_b) const
{
    auto has = [](const std::vector<core::VddMv> &v, core::VddMv l) {
        return std::find(v.begin(), v.end(), l) != v.end();
    };
    const std::uint64_t n = map.geometry().lines();
    if (level_a == level_b)
        return has(authLevels, level_a) || has(remapLevels, level_a)
                   ? core::possibleCrps(n)
                   : 0;
    return has(authLevels, level_a) && has(authLevels, level_b) ? n * n
                                                                 : 0;
}

std::vector<PairStream>::const_iterator
DeviceRecord::findStream(core::VddMv level_a,
                         core::VddMv level_b) const
{
    return std::find_if(streams.begin(), streams.end(),
                        [&](const PairStream &s) {
                            return s.levelA == std::min(level_a, level_b) &&
                                   s.levelB == std::max(level_a, level_b);
                        });
}

PairStream &
DeviceRecord::pairStream(core::VddMv level_a, core::VddMv level_b)
{
    const std::pair levels(std::min(level_a, level_b),
                           std::max(level_a, level_b));
    // Kept sorted by level pair: the snapshot's canonical order.
    auto at = std::find_if(streams.begin(), streams.end(),
                           [&](const PairStream &s) {
                               return std::pair(s.levelA, s.levelB) >=
                                      levels;
                           });
    if (at != streams.end() && std::pair(at->levelA, at->levelB) == levels)
        return *at;
    if (streamDomain(level_a, level_b) == 0)
        throw std::invalid_argument("DeviceRecord: no such pair stream");
    return *streams.insert(at,
                           PairStream{levels.first, levels.second, 0, {}});
}

std::uint64_t
DeviceRecord::remainingPairs(core::VddMv level_a,
                             core::VddMv level_b) const
{
    const std::uint64_t domain = streamDomain(level_a, level_b);
    auto s = findStream(level_a, level_b);
    if (s == streams.end())
        return domain;
    // A frozen rank counts as retired until the counter skips it.
    const PairPermutation perm(domain, seed, s->levelA, s->levelB);
    std::uint64_t ahead = 0;
    for (std::uint64_t rank : s->frozen)
        ahead += perm.unmap(rank) >= s->counter;
    return domain - s->counter - ahead;
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
