#include "server/session_manager.hpp"

#include <string>

#include "util/logging.hpp"

namespace authenticache::server {

namespace {

/** SplitMix64 finalizer: device ids are often small and sequential,
 *  so spread them over the shards with a full-avalanche mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
roundUpPowerOfTwo(std::uint64_t n)
{
    if (n <= 1)
        return 1;
    --n;
    for (unsigned shift = 1; shift < 64; shift <<= 1)
        n |= n >> shift;
    return n + 1;
}

} // namespace

void
SessionShard::noteDeadline(std::uint64_t nonce, std::uint64_t deadline)
{
    if (deadline != 0)
        deadlineWheel.emplace(deadline, nonce);
}

void
SessionShard::cacheCompleted(std::uint64_t nonce,
                             protocol::Message reply,
                             std::size_t cache_size)
{
    if (cache_size == 0)
        return;
    if (completed.emplace(nonce, std::move(reply)).second)
        completedOrder.push_back(nonce);
    while (completed.size() > cache_size) {
        completed.erase(completedOrder.front());
        completedOrder.pop_front();
    }
}

const protocol::Message *
SessionShard::findCompleted(std::uint64_t nonce) const
{
    auto it = completed.find(nonce);
    return it == completed.end() ? nullptr : &it->second;
}

void
SessionShard::forgetActiveAuth(std::uint64_t device_id,
                               std::uint64_t nonce)
{
    auto it = activeAuthByDevice.find(device_id);
    if (it != activeAuthByDevice.end() && it->second == nonce)
        activeAuthByDevice.erase(it);
}

void
SessionShard::expire(std::uint64_t now)
{
    // Walk the wheel up to `now`; entries are validated lazily against
    // the live session's *current* deadline, so a dup-request deadline
    // refresh simply strands the old entry (skipped here) while the
    // refreshed one fires later.
    auto end = deadlineWheel.upper_bound(now);
    for (auto it = deadlineWheel.begin(); it != end;
         it = deadlineWheel.erase(it)) {
        const std::uint64_t nonce = it->second;
        auto auth = pendingAuths.find(nonce);
        if (auth != pendingAuths.end()) {
            if (auth->second.deadline == 0 ||
                auth->second.deadline > now)
                continue; // Refreshed since this entry was queued.
            // Consumed pairs stay retired; the nonce is simply dead.
            forgetActiveAuth(auth->second.deviceId, nonce);
            pendingAuths.erase(auth);
            ++counters.expired;
            continue;
        }
        auto remap = pendingRemaps.find(nonce);
        if (remap != pendingRemaps.end()) {
            if (remap->second.deadline == 0 ||
                remap->second.deadline > now)
                continue;
            pendingRemaps.erase(remap);
            ++counters.expired;
        }
    }
}

bool
SessionShard::evict(std::uint64_t nonce)
{
    // The nonce may already have completed; eviction only counts when
    // something was actually dropped.
    auto auth = pendingAuths.find(nonce);
    if (auth != pendingAuths.end()) {
        forgetActiveAuth(auth->second.deviceId, nonce);
        pendingAuths.erase(auth);
        ++counters.evicted;
        AUTH_LOG_WARN("server.sessions")
            << "pending-session cap: evicted nonce " << nonce;
        return true;
    }
    if (pendingRemaps.erase(nonce) > 0) {
        ++counters.evicted;
        AUTH_LOG_WARN("server.sessions")
            << "pending-session cap: evicted nonce " << nonce;
        return true;
    }
    return false;
}

bool
SessionShard::endHeartbeat(std::uint64_t device_id)
{
    auto hb = heartbeats.find(device_id);
    if (hb == heartbeats.end())
        return false;
    if (hb->second.activeNonce != 0)
        heartbeatByNonce.erase(hb->second.activeNonce);
    heartbeats.erase(hb);
    return true;
}

SessionManager::SessionManager(const ServerConfig &config,
                               std::uint64_t seed)
    : cfg(config), masterSeed(seed)
{
    const std::uint64_t count = roundUpPowerOfTwo(
        config.sessionShards == 0 ? 1 : config.sessionShards);
    shardMask = count - 1;
    shards.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        shards.push_back(std::make_unique<SessionShard>());
        shards.back()->index = static_cast<unsigned>(i);
    }
}

unsigned
SessionManager::shardIndexForDevice(std::uint64_t device_id) const
{
    return static_cast<unsigned>(mix64(device_id) & shardMask);
}

util::Rng &
SessionManager::deviceRng(SessionShard &sh, std::uint64_t device_id)
{
    auto it = sh.deviceRngs.find(device_id);
    if (it == sh.deviceRngs.end()) {
        it = sh.deviceRngs
                 .emplace(device_id,
                          util::Rng::forStream(masterSeed, device_id))
                 .first;
    }
    return it->second;
}

std::uint64_t
SessionManager::makeNonce(const SessionShard &sh, util::Rng &rng) const
{
    return (rng.next() & ~shardMask) |
           static_cast<std::uint64_t>(sh.index);
}

std::uint64_t
SessionManager::sessionDeadline() const
{
    if (!simClock || cfg.sessionTimeoutSteps == 0)
        return 0;
    return simClock->now() + cfg.sessionTimeoutSteps;
}

void
SessionManager::expireAll()
{
    if (!simClock || cfg.sessionTimeoutSteps == 0)
        return;
    const std::uint64_t now = simClock->now();
    for (auto &sh : shards) {
        util::MutexLock guard(sh->mutex);
        sh->expire(now);
    }
}

std::uint64_t
SessionManager::reserveOrdinals(std::size_t count)
{
    const std::uint64_t base = nextOrdinal;
    nextOrdinal += count;
    return base;
}

void
SessionManager::registerOpen(std::uint64_t ordinal, std::uint64_t nonce)
{
    pendingByOrdinal.emplace(ordinal, nonce);
}

void
SessionManager::enforceCap()
{
    std::size_t total = totalPending();
    while (total > cfg.maxPendingSessions &&
           !pendingByOrdinal.empty()) {
        auto oldest = pendingByOrdinal.begin();
        const std::uint64_t victim = oldest->second;
        pendingByOrdinal.erase(oldest);
        SessionShard &sh = shardForNonce(victim);
        util::MutexLock guard(sh.mutex);
        if (sh.evict(victim))
            --total; // Stale entries (completed nonces) just drop out.
    }
    compactOrdinals();
}

void
SessionManager::compactOrdinals()
{
    // Completed sessions leave stale nonces in the ordinal map (lazy
    // deletion); compact before it grows past a small multiple of the
    // live set.
    if (pendingByOrdinal.size() <= 4 * (cfg.maxPendingSessions + 1))
        return;
    for (auto it = pendingByOrdinal.begin();
         it != pendingByOrdinal.end();) {
        SessionShard &sh = shardForNonce(it->second);
        util::MutexLock guard(sh.mutex);
        if (sh.pendingAuths.count(it->second) ||
            sh.pendingRemaps.count(it->second))
            ++it;
        else
            it = pendingByOrdinal.erase(it);
    }
}

ShardCounters
SessionManager::totals() const
{
    ShardCounters sum;
    for (const auto &sh : shards) {
        util::MutexLock guard(sh->mutex);
        const ShardCounters &c = sh->counters;
        sum.dupRequests += c.dupRequests;
        sum.dupCompletions += c.dupCompletions;
        sum.expired += c.expired;
        sum.evicted += c.evicted;
        sum.lockouts += c.lockouts;
        sum.remapsCommitted += c.remapsCommitted;
        sum.remapsRejected += c.remapsRejected;
        sum.trustDecays += c.trustDecays;
        sum.stepUps += c.stepUps;
        sum.proactiveRemaps += c.proactiveRemaps;
        sum.revocations += c.revocations;
        sum.heartbeatsClean += c.heartbeatsClean;
        sum.heartbeatsMarginal += c.heartbeatsMarginal;
        sum.heartbeatsFailed += c.heartbeatsFailed;
    }
    return sum;
}

std::size_t
SessionManager::totalPending() const
{
    std::size_t total = 0;
    for (const auto &sh : shards) {
        util::MutexLock guard(sh->mutex);
        total += sh->pending();
    }
    return total;
}

std::size_t
SessionManager::activeHeartbeats() const
{
    std::size_t total = 0;
    for (const auto &sh : shards) {
        util::MutexLock guard(sh->mutex);
        total += sh->heartbeats.size();
    }
    return total;
}

void
SessionManager::collectStats(util::StatsRegistry &registry,
                             const std::string &component) const
{
    for (const auto &sh : shards) {
        util::MutexLock guard(sh->mutex);
        const std::string name =
            component + ".shard" + std::to_string(sh->index);
        registry.set(name, "sessions_active",
                     std::uint64_t(sh->pending()));
        registry.set(name, "dedup_hits", sh->counters.dupRequests);
        registry.set(name, "replay_cache_hits",
                     sh->counters.dupCompletions);
        registry.set(name, "gc_evictions", sh->counters.expired);
        registry.set(name, "cap_evictions", sh->counters.evicted);
        registry.set(name, "lockouts", sh->counters.lockouts);
        registry.set(name, "heartbeats_active",
                     std::uint64_t(sh->heartbeats.size()));
        registry.set(name, "trust_decays", sh->counters.trustDecays);
    }
}

} // namespace authenticache::server
