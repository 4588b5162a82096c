// Tests for perfect output queueing: the InputQueuedSwitch built without
// a matcher, with FIFO output queues (an2/sim/iq_switch.h).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "an2/harness/aggregate.h"
#include "an2/harness/sweep.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

InputQueuedSwitch
outputQueued(int n)
{
    return InputQueuedSwitch({.n = n, .service = ServiceDiscipline::Fifo});
}

TEST(OqSwitchTest, AllSimultaneousArrivalsAccepted)
{
    // N cells for one output in one slot: no loss, drained 1/slot.
    InputQueuedSwitch sw = outputQueued(4);
    for (PortId i = 0; i < 4; ++i) {
        Cell c;
        c.flow = i;
        c.input = i;
        c.output = 2;
        sw.acceptCell(c);
    }
    EXPECT_EQ(sw.bufferedCells(), 4);
    for (int slot = 0; slot < 4; ++slot) {
        auto departed = sw.runSlot(slot);
        ASSERT_EQ(departed.size(), 1u);
        EXPECT_EQ(departed[0].output, 2);
    }
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(OqSwitchTest, WorkConservingAcrossOutputs)
{
    InputQueuedSwitch sw = outputQueued(4);
    for (PortId j = 0; j < 4; ++j) {
        Cell c;
        c.flow = j;
        c.input = 0;  // all from one input: impossible for IQ, fine here
        c.output = j;
        sw.acceptCell(c);
    }
    EXPECT_EQ(sw.runSlot(0).size(), 4u);
}

TEST(OqSwitchTest, FullLoadSustainsFullThroughput)
{
    InputQueuedSwitch sw = outputQueued(16);
    UniformTraffic traffic(16, 1.0, 3);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 4'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_GT(res.throughput, 0.97);
}

TEST(OqSwitchTest, DelayLowerThanAnyInputQueuedScheme)
{
    // M/D/1-like behaviour: at 50% uniform load the mean delay is well
    // under one slot... (cells delayed only by same-output contention).
    InputQueuedSwitch sw = outputQueued(16);
    UniformTraffic traffic(16, 0.5, 5);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 4'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_LT(res.mean_delay, 1.0);
}

TEST(OqSwitchTest, MeanDelayMatchesKarolHluchyjMorgan)
{
    // Karol, Hluchyj and Morgan (1987; the paper's §2.4): with uniform
    // Bernoulli arrivals at load p and one departure per output per
    // slot, the mean queueing delay of output queueing is
    // (N-1)/N * p / (2(1-p)) slots. The formula holds for that regime
    // only (not bursty or skewed traffic). The tolerance is each load's
    // 95% confidence half-width over 8 independent replicates: 0.4707
    // +- 0.0028 against 0.46875 at p = 0.5, and 1.8747 +- 0.0197
    // against 1.875 at p = 0.8.
    constexpr int kN = 16;
    harness::SweepSpec spec;
    spec.name = "oq_theory";
    spec.workload = "uniform";
    spec.archs = {{"OutputQueued",
                   [](int n, uint64_t) -> std::unique_ptr<SwitchModel> {
                       return std::make_unique<InputQueuedSwitch>(
                           IqSwitchConfig{
                               .n = n, .service = ServiceDiscipline::Fifo});
                   }}};
    spec.sizes = {kN};
    spec.loads = {0.5, 0.8};
    spec.replicates = 8;
    spec.base_seed = 1003;  // fig3's, so these are its OQ arrivals
    spec.slots = 20'000;
    spec.warmup = 4'000;
    spec.make_traffic = [](int n, double load, uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
    std::vector<harness::CellSummary> cells =
        harness::aggregate(spec, harness::runSweep(spec, 2));
    ASSERT_EQ(cells.size(), 2u);
    for (const harness::CellSummary& cell : cells) {
        const double p = cell.load;
        const double theory = (kN - 1.0) / kN * p / (2.0 * (1.0 - p));
        const harness::Aggregate& d = cell.mean_delay;
        EXPECT_EQ(d.n, 8);
        EXPECT_GT(d.ci95, 0.0);
        EXPECT_LE(std::abs(d.mean - theory), d.ci95)
            << "load " << p << ": mean delay " << d.mean << " +- "
            << d.ci95 << ", formula " << theory;
    }
}

TEST(OqSwitchTest, FifoPerOutput)
{
    InputQueuedSwitch sw = outputQueued(2);
    Cell first;
    first.flow = 0;
    first.input = 0;
    first.output = 1;
    first.seq = 1;
    Cell second;
    second.flow = 0;
    second.input = 0;
    second.output = 1;
    second.seq = 2;
    sw.acceptCell(first);
    sw.acceptCell(second);
    EXPECT_EQ(sw.runSlot(0)[0].seq, 1);
    EXPECT_EQ(sw.runSlot(1)[0].seq, 2);
}

TEST(OqSwitchTest, PerfectFabricNeedsAnOutputStageAndOnePhase)
{
    EXPECT_EQ(outputQueued(4).name(), "OutputQueued");
    EXPECT_THROW(InputQueuedSwitch({.n = 4}), UsageError);
    IqSwitchConfig two_phases{
        .n = 4, .speedup = 2, .service = ServiceDiscipline::Fifo};
    EXPECT_THROW(InputQueuedSwitch{two_phases}, UsageError);
}

TEST(OqSwitchTest, InvalidOutputRejected)
{
    InputQueuedSwitch sw = outputQueued(2);
    Cell bad;
    bad.output = 7;
    EXPECT_THROW(sw.acceptCell(bad), UsageError);
}

}  // namespace
}  // namespace an2
