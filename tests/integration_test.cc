// Cross-module integration tests: the paper's qualitative results as
// executable assertions (orderings from Figures 3/8, CBR+VBR coexistence).
#include <gtest/gtest.h>

#include <memory>

#include "an2/base/stats.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/statistical.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

std::unique_ptr<Matcher>
pim(int iterations, uint64_t seed)
{
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return std::make_unique<PimMatcher>(cfg);
}

SimResult
runUniform(InputQueuedSwitch& sw, double load, uint64_t seed,
           SlotTime slots = 30'000)
{
    UniformTraffic traffic(sw.size(), load, seed);
    SimConfig cfg;
    cfg.slots = slots;
    cfg.warmup = slots / 5;
    return runSimulation(sw, traffic, cfg);
}

TEST(IntegrationTest, Figure3OrderingAtHighLoad)
{
    // At 90% uniform load: FIFO has saturated (delay blows up, throughput
    // capped near 0.6); PIM(4) delivers the load with delay between OQ
    // and FIFO.
    constexpr double kLoad = 0.90;
    InputQueuedSwitch fifo(16, 1);
    InputQueuedSwitch pim_sw({.n = 16}, pim(4, 2));
    InputQueuedSwitch oq({.n = 16, .service = ServiceDiscipline::Fifo});

    SimResult r_fifo = runUniform(fifo, kLoad, 77);
    SimResult r_pim = runUniform(pim_sw, kLoad, 77);
    SimResult r_oq = runUniform(oq, kLoad, 77);

    // FIFO saturates below the offered load.
    EXPECT_LT(r_fifo.throughput, 0.70);
    // PIM and OQ carry the full load.
    EXPECT_NEAR(r_pim.throughput, kLoad, 0.02);
    EXPECT_NEAR(r_oq.throughput, kLoad, 0.02);
    // Delay ordering: OQ <= PIM << FIFO.
    EXPECT_LT(r_oq.mean_delay, r_pim.mean_delay);
    EXPECT_LT(r_pim.mean_delay, r_fifo.mean_delay);
}

TEST(IntegrationTest, MoreIterationsNeverHurt)
{
    constexpr double kLoad = 0.85;
    InputQueuedSwitch one({.n = 16}, pim(1, 3));
    InputQueuedSwitch four({.n = 16}, pim(4, 3));
    SimResult r1 = runUniform(one, kLoad, 88);
    SimResult r4 = runUniform(four, kLoad, 88);
    EXPECT_GT(r1.mean_delay, r4.mean_delay);
}

TEST(IntegrationTest, IslipComparableToPimAtFullLoad)
{
    constexpr double kLoad = 0.95;
    InputQueuedSwitch islip_sw({.n = 16}, std::make_unique<IslipMatcher>(4));
    InputQueuedSwitch pim_sw({.n = 16}, pim(4, 4));
    SimResult ri = runUniform(islip_sw, kLoad, 99);
    SimResult rp = runUniform(pim_sw, kLoad, 99);
    EXPECT_NEAR(ri.throughput, kLoad, 0.02);
    EXPECT_NEAR(rp.throughput, kLoad, 0.02);
}

TEST(IntegrationTest, Figure8UnfairnessAndStatisticalFix)
{
    // Figure 8 on a 4x4 switch (0-based ports): inputs 0-2 have queued
    // cells for output 0 *only*; input 3 has queued cells for all four
    // outputs. Output 0 grants input 3 with probability 1/4, and input 3
    // accepts that grant with probability 1/4 (it always holds grants
    // from outputs 1-3, which have no other requester), so connection
    // (3,0) receives ~1/16 of the link while (3,1..3) each get ~5/16 —
    // exactly the paper's numbers.
    constexpr int kN = 4;
    constexpr SlotTime kSlots = 50'000;

    auto runSaturated = [&](std::unique_ptr<Matcher> matcher) {
        InputQueuedSwitch sw({.n = kN}, std::move(matcher));
        // Saturate the figure's VOQs: every connection in the pattern
        // keeps a backlog (the figure shows standing queues).
        auto topUp = [&](PortId i, PortId j, SlotTime slot) {
            Cell c;
            c.flow = static_cast<FlowId>(i * kN + j);
            c.input = i;
            c.output = j;
            c.inject_slot = slot;
            sw.acceptCell(c);
        };
        Matrix<int64_t> served(kN, kN, 0);
        for (SlotTime slot = 0; slot < kSlots; ++slot) {
            for (PortId i = 0; i < 3; ++i)
                topUp(i, 0, slot);
            for (PortId j = 0; j < kN; ++j)
                topUp(3, j, slot);
            for (const Cell& d : sw.runSlot(slot))
                ++served(d.input, d.output);
        }
        return served;
    };

    auto pim_served = runSaturated(pim(4, 5));
    double pim_30 = static_cast<double>(pim_served(3, 0)) / kSlots;
    double pim_31 = static_cast<double>(pim_served(3, 1)) / kSlots;
    EXPECT_NEAR(pim_30, 1.0 / 16, 0.02);
    EXPECT_NEAR(pim_31, 5.0 / 16, 0.03);

    // Statistical matching with fair allocations (a quarter of input 3's
    // link per connection) restores connection (3,0) to ~0.72 * 1/4.
    Matrix<int> alloc(kN, kN, 0);
    constexpr int kUnits = 1000;
    for (PortId j = 0; j < kN; ++j)
        alloc(3, j) = kUnits / 4;
    for (PortId i = 0; i < 3; ++i)
        alloc(i, 0) = kUnits / 4;
    StatisticalConfig scfg;
    scfg.units = kUnits;
    scfg.rounds = 2;
    scfg.seed = 6;
    auto stat_served = runSaturated(
        std::make_unique<StatisticalMatcher>(alloc, scfg));
    double stat_30 = static_cast<double>(stat_served(3, 0)) / kSlots;
    EXPECT_GT(stat_30, 0.25 * 0.70);
    EXPECT_GT(stat_30, pim_30 * 2.0);
}

TEST(IntegrationTest, CbrUnaffectedByVbrFloodEndToEnd)
{
    // Full pipeline: Slepian-Duguid reservations + IQ switch + saturating
    // VBR generator; every reserved slot must deliver a CBR cell while
    // VBR absorbs the rest.
    constexpr int kN = 8;
    constexpr int kFrame = 16;
    SlepianDuguidScheduler sd(kN, kFrame);
    ASSERT_TRUE(sd.addReservation(2, 5, 8));   // half of input 2's link
    ASSERT_TRUE(sd.addReservation(4, 5, 4));   // shares output 5
    InputQueuedSwitch sw({.n = kN}, pim(4, 7), &sd.schedule());

    UniformTraffic vbr(kN, 1.0, 8);
    Xoshiro256 unused(0);
    int64_t cbr_seq = 0;
    int64_t cbr_delivered_25 = 0;
    int64_t cbr_delivered_45 = 0;
    constexpr int kFrames = 250;
    std::vector<Cell> arrivals;
    for (SlotTime slot = 0; slot < kFrames * kFrame; ++slot) {
        // Backlogged CBR sources on both reserved connections.
        Cell a;
        a.flow = 1000;
        a.input = 2;
        a.output = 5;
        a.cls = TrafficClass::CBR;
        a.seq = cbr_seq++;
        a.inject_slot = slot;
        sw.acceptCell(a);
        Cell b = a;
        b.flow = 1001;
        b.input = 4;
        sw.acceptCell(b);
        arrivals.clear();
        vbr.generate(slot, arrivals);
        for (const Cell& c : arrivals)
            sw.acceptCell(c);
        for (const Cell& d : sw.runSlot(slot)) {
            if (d.flow == 1000)
                ++cbr_delivered_25;
            else if (d.flow == 1001)
                ++cbr_delivered_45;
        }
    }
    EXPECT_GE(cbr_delivered_25, (kFrames - 2) * 8);
    EXPECT_GE(cbr_delivered_45, (kFrames - 2) * 4);
    // VBR still moves in the leftover capacity.
    EXPECT_GT(sw.vbrForwarded(), 0);
}

TEST(IntegrationTest, ClientServerWorkloadPimTracksOq)
{
    // Figure 4's qualitative claim: under the client-server workload PIM
    // comes even closer to output queueing than under uniform traffic.
    constexpr double kServerLoad = 0.9;
    InputQueuedSwitch pim_sw({.n = 16}, pim(4, 9));
    InputQueuedSwitch oq({.n = 16, .service = ServiceDiscipline::Fifo});
    ClientServerTraffic t1(16, 4, kServerLoad, 10);
    ClientServerTraffic t2(16, 4, kServerLoad, 10);
    SimConfig cfg;
    cfg.slots = 30'000;
    cfg.warmup = 6'000;
    SimResult rp = runSimulation(pim_sw, t1, cfg);
    SimResult ro = runSimulation(oq, t2, cfg);
    // Same offered traffic, both deliver it all.
    EXPECT_NEAR(rp.throughput, ro.throughput, 0.02);
    // PIM's delay within a small factor of optimal.
    EXPECT_LT(rp.mean_delay, 3.0 * ro.mean_delay + 1.0);
}

}  // namespace
}  // namespace an2
