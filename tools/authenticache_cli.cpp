/**
 * @file
 * Command-line front end for the Authenticache library.
 *
 *   authenticache_cli enroll --db FILE --device ID [--device ID ...]
 *       Manufacture the devices (die seed = ID), enroll them, and
 *       persist the server database.
 *
 *   authenticache_cli auth --db FILE --device ID [--rounds N]
 *       Reload the database, re-manufacture the device from its die
 *       seed, and run N protocol authentications (consuming fresh
 *       CRPs; the updated database is written back). With
 *       --durable DIR the server journals every mutation to DIR
 *       (write-ahead log + snapshot generations) and starts from
 *       whatever state crash recovery finds there.
 *
 *   authenticache_cli recover --durable DIR [--export FILE]
 *       Run crash recovery against a durability directory, report
 *       what it found, and optionally export the recovered database
 *       as a plain snapshot file.
 *
 *   authenticache_cli heartbeat --db FILE --device ID [--steps N]
 *       Open a continuous-authentication heartbeat session and drive
 *       it N simulated clock steps, printing the trust trajectory.
 *       With --drift the device experiences a deterministic
 *       temperature/aging/noise excursion while the session runs, so
 *       the graceful-degradation ladder (step-up challenges,
 *       proactive remap, re-enrollment, revocation) can be observed
 *       from the command line.
 *
 *   authenticache_cli revoke --db FILE --device ID
 *   authenticache_cli unlock --db FILE --device ID
 *       Administratively revoke a device, or clear a lockout /
 *       revocation / re-enrollment flag and restore trust.
 *
 *   authenticache_cli imposter --db FILE --device ID --die SEED
 *       A different die (SEED) presents device ID's identity.
 *
 *   authenticache_cli keygen --die SEED
 *       Provision a PUF-backed key and regenerate it under drift.
 *
 *   authenticache_cli info --db FILE
 *       Summarize the enrollment database.
 *
 * Device-manufacturing commands accept --platform FILE to pick the
 * fingerprint substrate (sram_vmin, dram_mra) and its physics from a
 * platform config; the default is the SRAM Vmin chip the paper
 * models. --stats dumps the substrate.* and ecc.* self-reported
 * counters alongside the client and server ones.
 */

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "firmware/keygen.hpp"
#include "net/device_agent.hpp"
#include "server/durability.hpp"
#include "server/server.hpp"
#include "server/storage.hpp"
#include "sim/drift.hpp"
#include "substrate/config.hpp"
#include "substrate/drift_injector.hpp"
#include "substrate/registry.hpp"
#include "util/table.hpp"

using namespace authenticache;

namespace {

struct Args
{
    std::string command;
    std::map<std::string, std::vector<std::string>> options;

    bool
    has(const std::string &key) const
    {
        return options.count(key) > 0;
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = options.find(key);
        return it == options.end() || it->second.empty()
                   ? fallback
                   : it->second.front();
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t fallback) const
    {
        auto v = get(key);
        return v.empty() ? fallback : std::stoull(v, nullptr, 0);
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc >= 2)
        args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
            std::string key = token.substr(2);
            if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2)) {
                args.options[key].push_back(argv[++i]);
            } else {
                args.options[key].push_back("");
            }
        }
    }
    return args;
}

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  authenticache_cli enroll   --db FILE --device ID"
           " [--device ID ...] [--cache-kb N] [--platform FILE]\n"
        << "  authenticache_cli auth     --db FILE --device ID"
           " [--rounds N] [--cache-kb N] [--platform FILE]"
           " [--shards N] [--stats] [--durable DIR]\n"
        << "  authenticache_cli recover  --durable DIR"
           " [--export FILE]\n"
        << "  authenticache_cli heartbeat --db FILE --device ID"
           " [--steps N] [--drift] [--cache-kb N] [--platform FILE]"
           " [--stats] [--durable DIR]\n"
        << "  authenticache_cli revoke   --db FILE --device ID"
           " [--durable DIR]\n"
        << "  authenticache_cli unlock   --db FILE --device ID"
           " [--durable DIR]\n"
        << "  authenticache_cli imposter --db FILE --device ID"
           " --die SEED [--cache-kb N] [--platform FILE]\n"
        << "  authenticache_cli keygen   --die SEED [--cache-kb N]"
           " [--platform FILE]\n"
        << "  authenticache_cli info     --db FILE\n";
    return 2;
}

/**
 * Substrate selection: --platform FILE loads a platform config
 * (substrate kind, ECC scheme, device physics); otherwise the
 * defaults model the paper's SRAM Vmin chip. --cache-kb overrides
 * the array size either way, preserving the pre-plugin CLI default
 * of a 1 MB cache.
 */
substrate::PlatformConfig
devicePlatform(const Args &args)
{
    substrate::PlatformConfig cfg;
    std::string path = args.get("platform");
    if (!path.empty())
        cfg = substrate::loadPlatformConfigFile(path);
    if (args.has("cache-kb") || path.empty())
        cfg.cacheBytes = args.getU64("cache-kb", 1024) * 1024;
    return cfg;
}

/** A device re-manufactured from its die seed. */
struct Device
{
    std::unique_ptr<substrate::FingerprintSubstrate> chip;
    firmware::SimulatedMachine machine;
    firmware::AuthenticacheClient client;

    Device(std::uint64_t die_seed,
           const substrate::PlatformConfig &platform)
        : chip(substrate::makeSubstrate(platform, die_seed)),
          machine(4),
          client(*chip, machine,
                 [] {
                     firmware::ClientConfig cfg;
                     cfg.selfTestAttempts = 8;
                     return cfg;
                 }())
    {
        client.boot();
    }
};

/**
 * The server configuration of every command that talks to a device.
 * pIntra is 0.08, not the default 0.06 (the paper's hardware bound):
 * the CLI budgets its simulated devices the same intra-chip noise as
 * the test rigs and the noisy-field example.
 */
server::ServerConfig
deviceServerConfig()
{
    server::ServerConfig cfg;
    cfg.verifier.pIntra = 0.08;
    return cfg;
}

int
cmdEnroll(const Args &args)
{
    std::string path = args.get("db");
    if (path.empty() || !args.has("device"))
        return usage();
    const auto platform = devicePlatform(args);

    server::AuthenticationServer server(deviceServerConfig(),
                                        /*seed=*/0x5E4E4);

    for (const auto &id_str : args.options.at("device")) {
        std::uint64_t id = std::stoull(id_str, nullptr, 0);
        Device device(id, platform);
        auto levels =
            server::defaultChallengeLevels(device.client, 2);
        auto reserved = server::defaultReservedLevel(device.client);
        const auto &record =
            server.enroll(id, device.client, levels, {reserved});
        std::cout << "enrolled device " << id << ": floor "
                  << device.client.floorMv() << " mV, "
                  << record.physicalMap().totalErrors()
                  << " error lines\n";
    }
    server::saveDatabaseFile(server.database(), path);
    std::cout << "database written to " << path << "\n";
    return 0;
}

/**
 * Adopt server state. With --durable DIR the durability directory is
 * authoritative: run crash recovery and continue from whatever state
 * it restores (the --db snapshot only seeds a fresh directory).
 * Without it, the plain snapshot file is loaded directly.
 */
void
adoptState(const Args &args, server::AuthenticationServer &server,
           std::optional<server::DurabilityManager> &durability)
{
    std::string path = args.get("db");
    std::string durable_dir = args.get("durable");
    if (!durable_dir.empty()) {
        server::DurabilityConfig dcfg{durable_dir, 4096};
        auto recovered = server::DurabilityManager::recover(dcfg);
        if (recovered.freshStart)
            server.adoptDatabase(server::loadDatabaseFile(path));
        else
            server.adoptDatabase(std::move(recovered.db));
        durability.emplace(dcfg, server.database(),
                           recovered.lastSeq);
        durability->noteRecovery(recovered);
        server.attachDurability(&*durability);
        server.seedCompletedRemaps(recovered.remapOutcomes);
    } else {
        server.adoptDatabase(server::loadDatabaseFile(path));
    }
}

int
cmdAuth(const Args &args)
{
    std::string path = args.get("db");
    if (path.empty() || !args.has("device"))
        return usage();
    std::uint64_t id = args.getU64("device", 0);
    std::uint64_t rounds = args.getU64("rounds", 1);
    const auto platform = devicePlatform(args);

    server::ServerConfig cfg = deviceServerConfig();
    cfg.sessionShards =
        static_cast<unsigned>(args.getU64("shards", 8));
    server::AuthenticationServer server(cfg, 0xA17A);

    std::optional<server::DurabilityManager> durability;
    adoptState(args, server, durability);
    if (!server.database().contains(id)) {
        std::cerr << "device " << id << " not enrolled in " << path
                  << "\n";
        return 1;
    }

    Device device(id, platform);
    device.client.setMapKey(server.database().at(id).mapKey());

    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    net::DeviceAgent agent(id, device.client, *transport.connect());

    util::Table table({"round", "decision", "hamming_distance"});
    for (std::uint64_t round = 1; round <= rounds; ++round) {
        agent.requestAuthentication();
        net::runExchange(transport, agent, pool);
        const auto &d = agent.lastDecision();
        table.row()
            .cell(round)
            .cell(d ? (d->accepted ? "ACCEPTED" : "REJECTED")
                    : (agent.errors().empty()
                           ? "no decision"
                           : agent.errors().back()))
            .cell(d ? std::to_string(d->hammingDistance) : "-");
    }
    table.print(std::cout);

    if (args.has("stats")) {
        util::StatsRegistry registry;
        device.chip->reportStats(registry, "substrate");
        firmware::collectClientStats(device.client, registry);
        server::collectServerStats(server, registry);
        std::cout << "\n";
        registry.dump(std::cout);
    }

    if (durability) {
        // Compact on clean exit: the final state becomes a complete
        // snapshot generation, so the next recovery replays nothing.
        durability->rotate(server.database());
    }
    server::saveDatabaseFile(server.database(), path);
    std::cout << "database updated (pair-stream counters persisted)\n";
    return 0;
}

int
cmdRecover(const Args &args)
{
    std::string dir = args.get("durable");
    if (dir.empty())
        return usage();

    server::DurabilityConfig dcfg{dir, 0};
    auto recovered = server::DurabilityManager::recover(dcfg);

    const char *outcome = "?";
    switch (recovered.outcome()) {
    case server::RecoveryOutcome::FreshStart:
        outcome = "fresh start (empty directory)";
        break;
    case server::RecoveryOutcome::SnapshotOnly:
        outcome = "snapshot only";
        break;
    case server::RecoveryOutcome::SnapshotPlusJournal:
        outcome = "snapshot + journal replay";
        break;
    case server::RecoveryOutcome::FallbackSnapshot:
        outcome = "fallback to previous snapshot generation";
        break;
    }
    util::Table table({"field", "value"});
    table.row().cell("outcome").cell(outcome);
    table.row().cell("generation").cell(recovered.generation);
    table.row().cell("last_sequence").cell(recovered.lastSeq);
    table.row()
        .cell("replayed_records")
        .cell(recovered.replayedRecords);
    table.row()
        .cell("snapshot_fallbacks")
        .cell(recovered.snapshotFallbacks);
    table.row()
        .cell("torn_tail_truncated")
        .cell(recovered.tornTailTruncated ? "yes" : "no");
    table.row()
        .cell("remap_outcomes")
        .cell(std::uint64_t(recovered.remapOutcomes.size()));
    table.row()
        .cell("devices")
        .cell(std::uint64_t(recovered.db.size()));
    table.print(std::cout);

    std::string export_path = args.get("export");
    if (!export_path.empty()) {
        server::saveDatabaseFile(recovered.db, export_path);
        std::cout << "recovered database exported to " << export_path
                  << "\n";
    }
    return 0;
}

const char *
tierName(std::uint8_t tier)
{
    switch (static_cast<protocol::TrustTier>(tier)) {
    case protocol::TrustTier::Nominal:
        return "nominal";
    case protocol::TrustTier::StepUp:
        return "step-up";
    case protocol::TrustTier::RemapScheduled:
        return "remap-scheduled";
    case protocol::TrustTier::ReenrollRequired:
        return "reenroll-required";
    case protocol::TrustTier::Revoked:
        return "revoked";
    }
    return "?";
}

int
cmdHeartbeat(const Args &args)
{
    std::string path = args.get("db");
    if (path.empty() || !args.has("device"))
        return usage();
    std::uint64_t id = args.getU64("device", 0);
    std::uint64_t steps = args.getU64("steps", 64);
    const auto platform = devicePlatform(args);

    server::AuthenticationServer server(deviceServerConfig(), 0xBEA7);

    std::optional<server::DurabilityManager> durability;
    adoptState(args, server, durability);
    if (!server.database().contains(id)) {
        std::cerr << "device " << id << " not enrolled in " << path
                  << "\n";
        return 1;
    }

    Device device(id, platform);
    device.client.setMapKey(server.database().at(id).mapKey());

    util::SimClock clock;
    server.bindClock(&clock);

    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    auto *link = transport.connect();
    net::DeviceAgent agent(id, device.client, *link);
    agent.bindClock(&clock);

    // --drift: a deterministic excursion peaking halfway through the
    // run and holding, so short runs still reach the interesting part
    // of the degradation ladder.
    std::optional<substrate::DriftInjector> drift;
    if (args.has("drift")) {
        sim::DriftScheduleConfig dcfg;
        dcfg.rampSteps = steps / 2 == 0 ? 1 : steps / 2;
        dcfg.holdSteps = steps;
        dcfg.returnToNominal = false;
        drift.emplace(*device.chip,
                      sim::DriftSchedule(0xD21F7, id, dcfg));
        drift->apply(clock.now());
    }

    server.startHeartbeat(id, link->sink(id));

    util::Table table(
        {"step", "trust", "tier", "round", "hamming_distance"});
    std::optional<std::uint32_t> seen_trust;
    std::optional<std::uint8_t> seen_tier;
    std::uint64_t seen_rounds = 0;
    for (std::uint64_t s = 0; s < steps; ++s) {
        net::runExchange(transport, agent, pool);
        if (agent.lastTrust() != seen_trust ||
            agent.lastTier() != seen_tier ||
            agent.heartbeatsAnswered() != seen_rounds) {
            seen_trust = agent.lastTrust();
            seen_tier = agent.lastTier();
            seen_rounds = agent.heartbeatsAnswered();
            const auto &v = agent.lastVerdict();
            if (seen_trust && seen_tier)
                table.row()
                    .cell(clock.now())
                    .cell(std::uint64_t(*seen_trust))
                    .cell(tierName(*seen_tier))
                    .cell(v ? (v->accepted ? "accepted" : "failed")
                            : "-")
                    .cell(v ? std::to_string(v->hammingDistance)
                            : "-");
        }
        if (agent.revoked())
            break;
        clock.advance(1);
        if (drift)
            drift->apply(clock.now());
        server.tickHeartbeats(link->sink(id));
        server.tick();
        agent.tick();
    }
    server.stopHeartbeat(id);

    table.print(std::cout);
    std::cout << "\nheartbeats answered: "
              << agent.heartbeatsAnswered() << ", remaps: "
              << agent.remapsProcessed() << ", final trust: "
              << (seen_trust ? std::to_string(*seen_trust) : "-")
              << " ("
              << (seen_tier ? tierName(*seen_tier) : "no verdict")
              << ")" << (agent.revoked() ? ", REVOKED" : "") << "\n";
    const auto &record = server.database().at(id);
    std::cout << "server record: trust " << record.trustScore()
              << ", remap budget used " << record.remapBudgetUsed()
              << (record.reenrollRequired()
                      ? ", re-enrollment required"
                      : "")
              << (record.revoked() ? ", revoked" : "") << "\n";

    if (args.has("stats")) {
        util::StatsRegistry registry;
        device.chip->reportStats(registry, "substrate");
        firmware::collectClientStats(device.client, registry);
        server::collectServerStats(server, registry);
        std::cout << "\n";
        registry.dump(std::cout);
    }

    if (durability)
        durability->rotate(server.database());
    server::saveDatabaseFile(server.database(), path);
    return 0;
}

int
cmdAdmin(const Args &args, bool revoke)
{
    std::string path = args.get("db");
    if (path.empty() || !args.has("device"))
        return usage();
    std::uint64_t id = args.getU64("device", 0);

    server::ServerConfig cfg;
    server::AuthenticationServer server(cfg, 0xAD317);
    std::optional<server::DurabilityManager> durability;
    adoptState(args, server, durability);
    if (!server.database().contains(id)) {
        std::cerr << "device " << id << " not enrolled in " << path
                  << "\n";
        return 1;
    }

    if (revoke) {
        server.revokeDevice(id);
        std::cout << "device " << id << " revoked\n";
    } else {
        server.unlockDevice(id);
        std::cout << "device " << id
                  << " unlocked (trust restored to "
                  << server.database().at(id).trustScore() << ")\n";
    }
    if (durability)
        durability->rotate(server.database());
    server::saveDatabaseFile(server.database(), path);
    return 0;
}

int
cmdImposter(const Args &args)
{
    std::string path = args.get("db");
    if (path.empty() || !args.has("device") || !args.has("die"))
        return usage();
    std::uint64_t id = args.getU64("device", 0);
    std::uint64_t die = args.getU64("die", 0);
    const auto platform = devicePlatform(args);

    server::AuthenticationServer server(deviceServerConfig(), 0x1290);
    auto db = server::loadDatabaseFile(path);
    for (const auto &[record_id, record] : db.all())
        server.database().enroll(record);

    Device imposter(die, platform);
    imposter.client.setMapKey(server.database().at(id).mapKey());

    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    net::DeviceAgent agent(id, imposter.client, *transport.connect());
    agent.requestAuthentication();
    net::runExchange(transport, agent, pool);

    if (agent.lastDecision()) {
        std::cout << "imposter die " << die << " presenting device "
                  << id << ": "
                  << (agent.lastDecision()->accepted ? "ACCEPTED"
                                                     : "REJECTED")
                  << " (HD " << agent.lastDecision()->hammingDistance
                  << ")\n";
        return agent.lastDecision()->accepted ? 1 : 0;
    }
    std::cout << "imposter aborted: "
              << (agent.errors().empty() ? "no decision"
                                         : agent.errors().back())
              << "\n";
    return 0;
}

int
cmdKeygen(const Args &args)
{
    if (!args.has("die"))
        return usage();
    std::uint64_t die = args.getU64("die", 0);

    Device device(die, devicePlatform(args));
    firmware::PufKeyGenerator keygen(device.client);
    auto level = static_cast<core::VddMv>(
        device.client.floorMv() + 10.0);

    util::Rng rng(die ^ 0x6EA);
    auto provisioned = keygen.provision(level, rng);
    std::cout << "provisioned a " << keygen.secretBits()
              << "-bit-secret key (BCH n=" << keygen.responseBits()
              << ", t=" << keygen.tolerance() << ")\n";

    for (double dt : {0.0, 15.0, 25.0}) {
        sim::Conditions c;
        c.temperatureDeltaC = dt;
        device.chip->setConditions(c);
        auto key = keygen.regenerate(provisioned.slot);
        std::cout << "regenerate at +" << dt << "C: "
                  << (key ? (*key == provisioned.key
                                 ? "OK"
                                 : "WRONG KEY")
                          : "FAILED (flagged)")
                  << "\n";
    }
    return 0;
}

int
cmdInfo(const Args &args)
{
    std::string path = args.get("db");
    if (path.empty())
        return usage();
    auto db = server::loadDatabaseFile(path);
    std::cout << db.size() << " device(s) in " << path << "\n\n";

    util::Table table({"device", "geometry", "errors", "levels",
                       "accepted", "rejected", "locked"});
    for (const auto &[id, record] : db.all()) {
        table.row()
            .cell(id)
            .cell(record.physicalMap().geometry().describe())
            .cell(std::uint64_t(record.physicalMap().totalErrors()))
            .cell(std::uint64_t(record.challengeLevels().size()))
            .cell(record.accepted())
            .cell(record.rejected())
            .cell(record.locked() ? "yes" : "no");
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        if (args.command == "enroll")
            return cmdEnroll(args);
        if (args.command == "auth")
            return cmdAuth(args);
        if (args.command == "recover")
            return cmdRecover(args);
        if (args.command == "heartbeat")
            return cmdHeartbeat(args);
        if (args.command == "revoke")
            return cmdAdmin(args, /*revoke=*/true);
        if (args.command == "unlock")
            return cmdAdmin(args, /*revoke=*/false);
        if (args.command == "imposter")
            return cmdImposter(args);
        if (args.command == "keygen")
            return cmdKeygen(args);
        if (args.command == "info")
            return cmdInfo(args);
        return usage();
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
