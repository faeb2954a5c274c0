#include "server/server.hpp"

#include <cmath>

#include "server/durability.hpp"
#include "server/storage.hpp"
#include "util/logging.hpp"

namespace authenticache::server {

namespace {

/** util::Rng::forStream index of the pair-seed stream. */
constexpr std::uint64_t kPairSeedStream = 0x9A12'5EED;

/** Journal an enrollment (full record encoding) and make it durable. */
void
journalEnrollment(DurabilityManager *dur, const DeviceRecord &record)
{
    if (dur == nullptr)
        return;
    protocol::ByteWriter w;
    encodeDeviceRecord(w, record);
    dur->append(journal::Enrolled{w.take()});
    dur->sync();
}

} // namespace

AuthenticationServer::AuthenticationServer(const ServerConfig &config,
                                           std::uint64_t seed)
    : cfg(config),
      rng(seed),
      pairSeeds(util::Rng::forStream(seed, kPairSeedStream)),
      generator(rng.fork()),
      verify(config.verifier),
      sessionsMgr(cfg, seed),
      front(sessionsMgr, devices, generator, verify)
{
}

DeviceRecord &
AuthenticationServer::enrollWithMap(
    std::uint64_t device_id, core::ErrorMap map,
    firmware::AuthenticacheClient &client,
    const std::vector<core::VddMv> &challenge_levels,
    const std::vector<core::VddMv> &reserved_levels)
{
    DeviceRecord record(device_id, std::move(map), challenge_levels,
                        reserved_levels);

    // Install the initial logical-map key over the trusted enrollment
    // channel.
    crypto::Key256 initial;
    for (auto &b : initial.bytes)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));
    record.setMapKey(initial);
    client.setMapKey(initial);

    AUTH_LOG_INFO("server")
        << "enrolled device " << device_id << " with "
        << record.physicalMap().totalErrors() << " errors";
    return enrollRecord(std::move(record));
}

DeviceRecord &
AuthenticationServer::enrollRecord(DeviceRecord record)
{
    // A fresh record gets its own pair seed, so a chip re-enrolled
    // with the same map never replays its old pair sequence; a record
    // that has already retired pairs keeps its seed, or it could
    // reissue them.
    if (!record.pairsIssued())
        record.setPairSeed(PairSeed{pairSeeds.next(), pairSeeds.next()});
    DeviceRecord &stored = devices.enroll(std::move(record));
    journalEnrollment(durability(), stored);
    return stored;
}

DeviceRecord &
AuthenticationServer::reenroll(
    std::uint64_t device_id, firmware::AuthenticacheClient &client,
    const std::vector<core::VddMv> &challenge_levels,
    const std::vector<core::VddMv> &reserved_levels,
    std::uint32_t sweep_passes)
{
    if (devices.remove(device_id) && durability() != nullptr)
        durability()->append(journal::DeviceRemoved{device_id});
    // The following enrollment syncs the removal and the fresh
    // record together.
    return enroll(device_id, client, challenge_levels,
                  reserved_levels, sweep_passes);
}

void
AuthenticationServer::unlockDevice(std::uint64_t device_id)
{
    DeviceRecord &record = devices.at(device_id);
    record.unlock(cfg.trust.max);
    ++unlockCount;
    if (durability() != nullptr) {
        durability()->append(journal::DeviceUnlocked{device_id});
        // The absolute trust restore follows as its own event so
        // replay never depends on the restarted server's policy
        // (DeviceUnlocked alone replays the record-level default).
        durability()->append(journal::TrustUpdate{
            device_id, record.trustScore(), record.remapBudgetUsed(),
            record.reenrollRequired()});
        durability()->sync();
    }
}

void
AuthenticationServer::revokeDevice(std::uint64_t device_id)
{
    SessionShard &sh = sessionsMgr.shardForDevice(device_id);
    DeviceRecord &record = devices.at(device_id);
    {
        util::MutexLock lock(sh.mutex);
        record.revoke();
        ++sh.counters.revocations;
        sh.endHeartbeat(device_id);
    }
    if (durability() != nullptr) {
        durability()->append(journal::TrustUpdate{
            device_id, record.trustScore(), record.remapBudgetUsed(),
            record.reenrollRequired()});
        durability()->append(journal::DeviceRevoked{device_id});
        durability()->sync();
    }
    AUTH_LOG_WARN("server")
        << "device " << device_id << " revoked by administrator";
}

bool
AuthenticationServer::removeDevice(std::uint64_t device_id)
{
    SessionShard &sh = sessionsMgr.shardForDevice(device_id);
    {
        // Tear down any live heartbeat session first, so a later
        // tick never dereferences the vanished record.
        util::MutexLock lock(sh.mutex);
        sh.endHeartbeat(device_id);
    }
    if (!devices.remove(device_id))
        return false;
    if (durability() != nullptr) {
        durability()->append(journal::DeviceRemoved{device_id});
        durability()->sync();
    }
    AUTH_LOG_WARN("server")
        << "device " << device_id << " removed by administrator";
    return true;
}

void
AuthenticationServer::seedCompletedRemaps(
    const std::vector<std::pair<std::uint64_t, bool>> &outcomes)
{
    for (const auto &[nonce, committed] : outcomes) {
        SessionShard &sh = sessionsMgr.shardForNonce(nonce);
        util::MutexLock lock(sh.mutex);
        sh.cacheCompleted(nonce,
                          protocol::RemapCommit{nonce, committed},
                          cfg.completedCacheSize);
    }
}

DeviceRecord &
AuthenticationServer::enroll(
    std::uint64_t device_id, firmware::AuthenticacheClient &client,
    const std::vector<core::VddMv> &challenge_levels,
    const std::vector<core::VddMv> &reserved_levels,
    std::uint32_t sweep_passes)
{
    if (client.floorMv() <= 0.0)
        client.boot();

    std::vector<core::VddMv> all_levels = challenge_levels;
    all_levels.insert(all_levels.end(), reserved_levels.begin(),
                      reserved_levels.end());
    core::ErrorMap map =
        client.captureErrorMap(all_levels, sweep_passes);
    return enrollWithMap(device_id, std::move(map), client,
                         challenge_levels, reserved_levels);
}

void
collectServerStats(const AuthenticationServer &server,
                   util::StatsRegistry &registry,
                   const std::string &component)
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t locked = 0;
    std::uint64_t errors = 0;
    // Order-independent sums over the records. LINT:allow(unordered-iter)
    for (const auto &[id, record] : server.database().all()) {
        accepted += record.accepted();
        rejected += record.rejected();
        locked += record.locked() ? 1 : 0;
        errors += record.physicalMap().totalErrors();
    }
    registry.set(component, "devices",
                 std::uint64_t(server.database().size()));
    registry.set(component, "authentications_accepted", accepted);
    registry.set(component, "authentications_rejected", rejected);
    registry.set(component, "devices_locked", locked);
    registry.set(component, "enrolled_error_lines", errors);
    const SessionManager &sess = server.sessions();
    const ShardCounters totals = sess.totals();
    registry.set(component, "remaps_committed", totals.remapsCommitted);
    registry.set(component, "remaps_rejected", totals.remapsRejected);
    registry.set(component, "pending_sessions",
                 std::uint64_t(server.pendingSessions()));
    registry.set(component, "sessions_evicted", totals.evicted);
    registry.set(component, "sessions_expired", totals.expired);
    registry.set(component, "duplicate_requests", totals.dupRequests);
    registry.set(component, "duplicate_completions",
                 totals.dupCompletions);
    registry.set(component, "lockouts", totals.lockouts);
    registry.set(component, "session_shards",
                 std::uint64_t(sess.shardCount()));

    // Continuous-authentication trust ledger.
    const std::string trust = component + ".trust";
    registry.set(trust, "decays", totals.trustDecays);
    registry.set(trust, "step_ups", totals.stepUps);
    registry.set(trust, "proactive_remaps", totals.proactiveRemaps);
    registry.set(trust, "revocations", totals.revocations);
    registry.set(trust, "unlocks", server.adminUnlocks());
    registry.set(trust, "heartbeats_clean", totals.heartbeatsClean);
    registry.set(trust, "heartbeats_marginal", totals.heartbeatsMarginal);
    registry.set(trust, "heartbeats_failed", totals.heartbeatsFailed);
    registry.set(trust, "heartbeats_active",
                 std::uint64_t(sess.activeHeartbeats()));
    sess.collectStats(registry, component);
    if (const DurabilityManager *dur = server.durability())
        dur->collectStats(registry, component);
}

std::vector<core::VddMv>
defaultChallengeLevels(const firmware::AuthenticacheClient &client,
                       std::size_t count, double spacing_mv)
{
    if (client.floorMv() <= 0.0)
        throw std::logic_error(
            "defaultChallengeLevels: device not booted");
    std::vector<core::VddMv> levels;
    double v = client.floorMv();
    for (std::size_t i = 0; i < count; ++i) {
        levels.push_back(
            static_cast<core::VddMv>(std::lround(v)));
        v += spacing_mv;
    }
    return levels;
}

core::VddMv
defaultReservedLevel(const firmware::AuthenticacheClient &client)
{
    if (client.floorMv() <= 0.0)
        throw std::logic_error(
            "defaultReservedLevel: device not booted");
    return static_cast<core::VddMv>(
        std::lround(client.floorMv() + 5.0));
}

} // namespace authenticache::server
