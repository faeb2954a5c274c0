/**
 * @file
 * Fleet enrollment: manufacture a fleet of devices, enroll them all
 * with one server, authenticate each, and report PUF population
 * statistics (uniqueness across dies, acceptance margins). Also shows
 * a stolen-credentials scenario: a device presenting another device's
 * identity is rejected by its silicon.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "metrics/quality.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace authenticache;

namespace {

struct FleetDevice
{
    std::unique_ptr<sim::SimulatedChip> chip;
    std::unique_ptr<firmware::SimulatedMachine> machine;
    std::unique_ptr<firmware::AuthenticacheClient> client;
    std::uint64_t id = 0;
};

} // namespace

int
main()
{
    std::cout << "== Authenticache fleet enrollment ==\n\n";

    const unsigned fleet_size = 6;
    server::ServerConfig server_cfg;
    server_cfg.challengeBits = 128;
    server::AuthenticationServer server(server_cfg, 7);

    // Manufacture and enroll the fleet.
    std::vector<FleetDevice> fleet(fleet_size);
    for (unsigned i = 0; i < fleet_size; ++i) {
        sim::ChipConfig cfg;
        cfg.cacheBytes = 1024 * 1024;
        fleet[i].id = 100 + i;
        fleet[i].chip = std::make_unique<sim::SimulatedChip>(
            cfg, 0xF1EE7 + i);
        fleet[i].machine =
            std::make_unique<firmware::SimulatedMachine>(4);
        fleet[i].client =
            std::make_unique<firmware::AuthenticacheClient>(
                *fleet[i].chip, *fleet[i].machine);
        fleet[i].client->boot();
        auto levels =
            server::defaultChallengeLevels(*fleet[i].client, 2);
        auto reserved =
            server::defaultReservedLevel(*fleet[i].client);
        const auto &record = server.enroll(
            fleet[i].id, *fleet[i].client, levels, {reserved});
        std::cout << "device " << fleet[i].id << ": floor "
                  << fleet[i].client->floorMv() << " mV, "
                  << record.physicalMap().totalErrors()
                  << " enrolled errors\n";
    }

    // Authenticate every device through the protocol.
    std::cout << "\n";
    util::Table table({"device", "decision", "hamming_distance"});
    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    for (auto &dev : fleet) {
        net::DeviceAgent agent(dev.id, *dev.client, *transport.connect());
        agent.requestAuthentication();
        net::runExchange(transport, agent, pool);
        const auto &d = agent.lastDecision();
        table.row()
            .cell(dev.id)
            .cell(d ? (d->accepted ? "ACCEPTED" : "REJECTED")
                    : "no decision")
            .cell(d ? std::to_string(d->hammingDistance) : "-");
    }
    table.print(std::cout);

    // Population uniqueness: same challenge geometry, every die.
    util::Rng rng(5);
    const auto &geom = fleet[0].chip->geometry();
    util::RunningStats uniqueness;
    for (int round = 0; round < 10; ++round) {
        std::vector<util::BitVec> responses;
        auto challenge = core::randomChallenge(geom, 0, 64, rng);
        for (auto &dev : fleet) {
            auto level = static_cast<core::VddMv>(
                dev.client->floorMv() + 10.0);
            auto map = dev.client->captureErrorMap({level}, 4);
            auto ch = challenge;
            for (auto &bit : ch.bits) {
                bit.a.vddMv = level;
                bit.b.vddMv = level;
            }
            responses.push_back(core::evaluate(map, ch));
        }
        uniqueness.add(metrics::uniqueness(responses));
    }
    std::cout << "\nfleet uniqueness (ideal 50%): "
              << uniqueness.mean() << "%\n";

    // Stolen identity: device B claims to be device A.
    auto &victim = fleet[0];
    auto &thief = fleet[1];
    net::DeviceAgent imposter(victim.id, *thief.client,
                              *transport.connect());
    // The thief even knows the victim's logical-map key.
    thief.client->setMapKey(
        server.database().at(victim.id).mapKey());
    imposter.requestAuthentication();
    net::runExchange(transport, imposter, pool);
    if (imposter.lastDecision()) {
        std::cout << "\nimposter presenting device " << victim.id
                  << ": "
                  << (imposter.lastDecision()->accepted ? "ACCEPTED"
                                                        : "REJECTED")
                  << " (HD "
                  << imposter.lastDecision()->hammingDistance
                  << ")\n";
    } else {
        std::cout << "\nimposter presenting device " << victim.id
                  << ": no decision (aborted: its chip cannot reach "
                     "the victim's voltage levels)\n";
    }
    return 0;
}
