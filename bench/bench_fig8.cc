/**
 * @file
 * Figure 8: unfairness of parallel iterative matching on a single switch.
 *
 * Scenario (0-based ports on a 4x4 switch): inputs 0-2 hold queued cells
 * for output 0 only; input 3 holds queued cells for all four outputs.
 * Output 0 grants input 3 with probability 1/4, and input 3 — which
 * always holds grants from the uncontended outputs 1-3 — accepts with
 * probability 1/4, so connection (3,0) receives ~1/16 of the link while
 * input 3's other connections each receive ~5/16 ("five times this
 * bandwidth"). Statistical matching with equal per-connection
 * allocations on input 3's link restores ~equal shares.
 */
#include <cstdio>

#include "an2/base/stats.h"
#include "an2/matching/fill_in.h"
#include "an2/matching/statistical.h"
#include "bench_common.h"

namespace {

using namespace an2;
using an2::bench::makePim;

constexpr int kN = 4;
constexpr SlotTime kSlots = 200'000;

Matrix<int64_t>
runSaturated(InputQueuedSwitch& sw)
{
    Matrix<int64_t> served(kN, kN, 0);
    // Keep each connection of the figure backlogged at a small standing
    // queue depth (the figure shows standing queues; topping up to a
    // fixed depth keeps memory bounded over the long run).
    Matrix<int> queued(kN, kN, 0);
    constexpr int kDepth = 4;
    auto topUp = [&](PortId i, PortId j, SlotTime slot) {
        while (queued.at(i, j) < kDepth) {
            Cell c;
            c.flow = static_cast<FlowId>(i * kN + j);
            c.input = i;
            c.output = j;
            c.inject_slot = slot;
            sw.acceptCell(c);
            ++queued.at(i, j);
        }
    };
    for (SlotTime slot = 0; slot < kSlots; ++slot) {
        for (PortId i = 0; i < 3; ++i)
            topUp(i, 0, slot);
        for (PortId j = 0; j < kN; ++j)
            topUp(3, j, slot);
        for (const Cell& d : sw.runSlot(slot)) {
            ++served(d.input, d.output);
            --queued.at(d.input, d.output);
        }
    }
    return served;
}

/**
 * The same contention pattern through Zhang's virtual clock on a perfect
 * output-queued switch (§5.1's comparison point). Arrivals respect the
 * input links (one cell per input per slot; input 3 rotates over its
 * four destinations), and every flow is assigned an equal 0.25 rate.
 */
Matrix<int64_t>
runVirtualClock()
{
    InputQueuedSwitch sw(
        {.n = kN, .service = ServiceDiscipline::VirtualClock});
    for (PortId i = 0; i < 3; ++i)
        sw.setFlowRate(i * kN + 0, 0.25);
    for (PortId j = 0; j < kN; ++j)
        sw.setFlowRate(3 * kN + j, 0.25);
    Matrix<int64_t> served(kN, kN, 0);
    for (SlotTime slot = 0; slot < kSlots; ++slot) {
        for (PortId i = 0; i < 3; ++i) {
            Cell c;
            c.flow = static_cast<FlowId>(i * kN);
            c.input = i;
            c.output = 0;
            c.arrival_slot = slot;
            sw.acceptCell(c);
        }
        auto j = static_cast<PortId>(slot % kN);
        Cell c;
        c.flow = static_cast<FlowId>(3 * kN + j);
        c.input = 3;
        c.output = j;
        c.arrival_slot = slot;
        sw.acceptCell(c);
        for (const Cell& d : sw.runSlot(slot))
            ++served(d.input, d.output);
    }
    return served;
}

void
printShares(const char* label, const Matrix<int64_t>& served)
{
    std::printf("  %-24s", label);
    std::vector<double> input3_shares;
    for (PortId j = 0; j < kN; ++j) {
        double share = static_cast<double>(served.at(3, j)) / kSlots;
        std::printf("  %6.4f", share);
        input3_shares.push_back(share);
    }
    std::printf("   %5.3f\n", jainFairnessIndex(input3_shares));
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Figure 8 -- single-switch unfairness of PIM vs statistical matching",
        "Anderson et al. 1992, Figure 8 / Section 5");
    std::printf("  Service rate of input 3's connections (fraction of its"
                " link)\n\n");
    std::printf("  %-24s  %6s  %6s  %6s  %6s   %s\n", "scheduler", "3->0",
                "3->1", "3->2", "3->3", "Jain");

    {
        InputQueuedSwitch sw({.n = kN}, makePim(4, 11));
        printShares("PIM(4)", runSaturated(sw));
    }
    {
        Matrix<int> alloc(kN, kN, 0);
        constexpr int kUnits = 1000;
        for (PortId j = 0; j < kN; ++j)
            alloc(3, j) = kUnits / 4;
        for (PortId i = 0; i < 3; ++i)
            alloc(i, 0) = kUnits / 4;
        StatisticalConfig cfg;
        cfg.units = kUnits;
        cfg.rounds = 2;
        cfg.seed = 12;
        InputQueuedSwitch sw(
            {.n = kN}, std::make_unique<StatisticalMatcher>(alloc, cfg));
        printShares("Statistical(2-round)", runSaturated(sw));

        // The full Section 5.2 configuration: statistical matching with a
        // PIM pass recycling the slots the weighted dice leave idle.
        StatisticalConfig cfg2 = cfg;
        cfg2.seed = 13;
        PimConfig pim_cfg;
        pim_cfg.iterations = 4;
        pim_cfg.seed = 14;
        InputQueuedSwitch sw2(
            {.n = kN},
            std::make_unique<FillInMatcher>(
                std::make_unique<StatisticalMatcher>(alloc, cfg2),
                std::make_unique<PimMatcher>(pim_cfg)));
        printShares("Statistical+PIM fill-in", runSaturated(sw2));
    }
    printShares("VirtualClock (needs OQ)", runVirtualClock());
    std::printf("\n  Paper: PIM gives (3->0) one sixteenth (0.0625) and the"
                " others five times that\n  (0.3125); statistical matching"
                " divides bandwidth per its allocations (~0.18 each\n"
                "  of the 0.25 allocations; the rest of the slots are left"
                " for PIM fill-in).\n");
    return 0;
}
