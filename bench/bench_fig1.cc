/**
 * @file
 * Figure 1: performance degradation due to FIFO queueing under periodic
 * traffic (Li's stationary blocking). Every input receives cells for the
 * same rotating output, in bursts of B slots per output. With FIFO input
 * buffers the queues stay synchronized on the same head destination and
 * aggregate throughput collapses toward a single link as B grows, while
 * random-access buffers (PIM) and output queueing sustain the full
 * switch. The bench prints aggregate throughput in units of links across
 * burst lengths.
 */
#include <cstdio>

#include "an2/sim/traffic.h"
#include "bench_common.h"

namespace {

using namespace an2;
using an2::bench::makePim;

constexpr int kN = 16;

double
aggregateLinks(InputQueuedSwitch& sw, int burst, uint64_t seed)
{
    PeriodicBurstTraffic traffic(kN, 1.0, seed, burst);
    SimConfig cfg;
    cfg.slots = 30'000;
    cfg.warmup = 6'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    return res.throughput * kN;  // links' worth of aggregate throughput
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Figure 1 -- FIFO stationary blocking under periodic traffic (16x16)",
        "Anderson et al. 1992, Figure 1 / Li 1988");
    std::printf("  All 16 inputs receive a cell every slot for output"
                " (slot / B) mod 16.\n  Aggregate throughput in links"
                " (max %d):\n\n", kN);
    std::printf("  %-26s", "architecture \\ burst B");
    const int bursts[] = {1, 16, 256, 2048};
    for (int b : bursts)
        std::printf("  %7d", b);
    std::printf("\n");

    std::printf("  %-26s", "FIFO");
    for (int b : bursts) {
        InputQueuedSwitch fifo(kN, 1);
        std::printf("  %7.2f", aggregateLinks(fifo, b, 11));
    }
    std::printf("\n  %-26s", "FIFO(window=4,rounds=4)");
    for (int b : bursts) {
        InputQueuedSwitch windowed(kN, 2, /*window=*/4, /*rounds=*/4);
        std::printf("  %7.2f", aggregateLinks(windowed, b, 12));
    }
    std::printf("\n  %-26s", "IQ[PIM(4)]");
    for (int b : bursts) {
        InputQueuedSwitch pim_sw({.n = kN}, makePim(4, 3));
        std::printf("  %7.2f", aggregateLinks(pim_sw, b, 13));
    }
    std::printf("\n  %-26s", "OutputQueued");
    for (int b : bursts) {
        InputQueuedSwitch oq({.n = kN, .service = ServiceDiscipline::Fifo});
        std::printf("  %7.2f", aggregateLinks(oq, b, 14));
    }
    std::printf("\n\n  Paper: under stationary blocking FIFO degrades"
                " toward 1-2 links (the longer\n  the bursts, the closer"
                " to a single link); without the FIFO restriction all\n"
                "  %d links stay fully utilized.\n", kN);
    return 0;
}
