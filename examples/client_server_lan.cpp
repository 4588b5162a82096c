/**
 * @file
 * Client-server LAN: the workload the paper's introduction motivates —
 * twelve workstations hammering four file servers through one 16x16 AN2
 * switch. The example compares scheduling architectures side by side
 * under increasing server load and reports what a user of the switch
 * actually feels: delay and delivered throughput on the server links.
 *
 *   $ ./client_server_lan
 */
#include <cstdio>
#include <memory>

#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

using namespace an2;

namespace {

constexpr int kN = 16;
constexpr int kServers = 4;

SimResult
evaluate(InputQueuedSwitch& sw, double server_load, uint64_t seed)
{
    ClientServerTraffic traffic(kN, kServers, server_load, seed);
    SimConfig cfg;
    cfg.slots = 60'000;
    cfg.warmup = 10'000;
    return runSimulation(sw, traffic, cfg);
}

}  // namespace

int
main()
{
    std::printf("an2sim example -- 12 clients, 4 servers, one switch\n\n");
    std::printf("Client-client traffic carries 5%% of the weight of"
                " server traffic (paper, Fig 4).\n\n");
    std::printf("  server   |         mean delay (slots)          |"
                "  delivered/offered\n");
    std::printf("  load     |     FIFO      PIM(4)     OutputQ    |"
                "   FIFO     PIM(4)\n");
    std::printf("  ---------+-------------------------------------+"
                "------------------\n");
    for (double load : {0.5, 0.7, 0.9, 0.98}) {
        InputQueuedSwitch fifo(kN, 21);
        SimResult rf = evaluate(fifo, load, 33);
        InputQueuedSwitch pim_sw({.n = kN},
                                 std::make_unique<PimMatcher>(
                                     PimConfig{.iterations = 4, .seed = 5}));
        SimResult rp = evaluate(pim_sw, load, 33);
        InputQueuedSwitch oq({.n = kN, .service = ServiceDiscipline::Fifo});
        SimResult ro = evaluate(oq, load, 33);
        std::printf("  %5.2f    | %8.2f   %8.2f   %8.2f    |  %5.3f    %5.3f\n",
                    load, rf.mean_delay, rp.mean_delay, ro.mean_delay,
                    rf.throughput / rf.offered, rp.throughput / rp.offered);
    }
    std::printf("\nReading the table: FIFO's head-of-line blocking melts"
                " down as the servers\napproach saturation, while PIM"
                " tracks the (unbuildable) ideal output-queued\nswitch"
                " within a whisker -- the paper's Figure 4 story.\n");
    return 0;
}
