/**
 * @file
 * Field-noise study: a device enrolled at the factory then deployed
 * through years of aging and temperature swings. Shows how the
 * response Hamming distance drifts with conditions, how the EER
 * threshold absorbs it, and where authentication finally starts to
 * fail -- the practical face of the paper's Sec 6.2 robustness
 * analysis.
 */

#include <iostream>

#include "metrics/identifiability.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace authenticache;

int
main()
{
    std::cout << "== Authenticache under field noise ==\n\n";

    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    sim::SimulatedChip chip(chip_cfg, 0xA6E);
    firmware::SimulatedMachine machine(4);
    firmware::ClientConfig client_cfg;
    client_cfg.selfTestAttempts = 4;
    firmware::AuthenticacheClient device(chip, machine, client_cfg);
    device.boot();

    server::ServerConfig server_cfg;
    server_cfg.challengeBits = 256;
    server_cfg.verifier.pIntra = 0.08;
    server::AuthenticationServer server(server_cfg, 99);
    // Challenge levels with ~10 mV of headroom above the floor, so
    // moderate environmental drift does not trip the emergency path.
    std::vector<core::VddMv> levels{
        static_cast<core::VddMv>(device.floorMv() + 12.0),
        static_cast<core::VddMv>(device.floorMv() + 22.0)};
    auto reserved = static_cast<core::VddMv>(device.floorMv() + 17.0);
    server.enroll(1, device, levels, {reserved});

    auto threshold =
        server.verifier().thresholdFor(server_cfg.challengeBits);
    std::cout << "EER identification threshold: " << threshold
              << " of " << server_cfg.challengeBits << " bits\n\n";

    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    net::DeviceAgent agent(1, device, *transport.connect());

    // Sweep the environment: each row is a deployment scenario; run a
    // few authentications per scenario and report distances.
    struct Scenario
    {
        const char *name;
        sim::Conditions conditions;
    };
    std::vector<Scenario> scenarios = {
        {"factory (enrollment conditions)", {}},
        {"+25C hot chassis", {25.0, 0.0, 1.0}},
        {"1 year aging", {0.0, 1.0, 1.0}},
        {"2 years aging, +15C", {15.0, 2.0, 1.0}},
        {"3 years aging, +25C", {25.0, 3.0, 2.0}},
        {"6 years aging, +25C, noisy rail", {25.0, 6.0, 3.0}},
    };

    util::Table table({"scenario", "auths", "accepted", "mean_HD",
                       "max_HD"});
    const int rounds = 6;
    for (const auto &scenario : scenarios) {
        chip.setConditions(scenario.conditions);
        util::RunningStats hd;
        int accepted = 0;
        int completed = 0;
        for (int round = 0; round < rounds; ++round) {
            agent.requestAuthentication();
            net::runExchange(transport, agent, pool);
            if (!agent.lastDecision())
                continue; // Aborted (e.g. emergency raise).
            ++completed;
            accepted += agent.lastDecision()->accepted;
            hd.add(agent.lastDecision()->hammingDistance);
        }
        table.row()
            .cell(scenario.name)
            .cell(std::int64_t(completed))
            .cell(std::int64_t(accepted))
            .cell(hd.mean(), 1)
            .cell(hd.count() ? hd.max() : 0.0, 0);
    }
    table.print(std::cout);

    std::cout
        << "\nreading: distances drift upward with aging and heat; "
           "authentication holds while mean HD stays below the "
           "threshold ("
        << threshold
        << ").\nmitigations (paper Sec 5.3): periodic floor "
           "recalibration and re-enrollment absorb long-term drift.\n";

    // Demonstrate recalibration: re-boot shifts the floor to track
    // the aged silicon.
    double old_floor = device.floorMv();
    double new_floor = device.boot();
    std::cout << "\nfloor after recalibration under aged conditions: "
              << old_floor << " -> " << new_floor << " mV\n";
    return 0;
}
