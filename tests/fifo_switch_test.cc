// Tests for the switch core's FIFO input form (an2/sim/iq_switch.h),
// including the Karol 58% head-of-line saturation bound.
#include "an2/sim/iq_switch.h"

#include <gtest/gtest.h>

#include <map>

#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

TEST(FifoSwitchTest, ForwardsSingleCell)
{
    InputQueuedSwitch sw(4, 1);
    Cell c;
    c.flow = 0;
    c.input = 2;
    c.output = 3;
    sw.acceptCell(c);
    auto departed = sw.runSlot(0);
    ASSERT_EQ(departed.size(), 1u);
    EXPECT_EQ(departed[0].output, 3);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(FifoSwitchTest, HeadOfLineBlocksSecondCell)
{
    InputQueuedSwitch sw(2, 1);
    // Input 0 queue: [->0, ->1]. Input 1 queue: [->0]. Whatever wins
    // output 0, input 0's cell for output 1 cannot move unless its head
    // already departed.
    Cell a0;
    a0.flow = 0;
    a0.input = 0;
    a0.output = 0;
    Cell a1;
    a1.flow = 1;
    a1.input = 0;
    a1.output = 1;
    Cell b0;
    b0.flow = 2;
    b0.input = 1;
    b0.output = 0;
    sw.acceptCell(a0);
    sw.acceptCell(a1);
    sw.acceptCell(b0);
    auto departed = sw.runSlot(0);
    // Exactly one cell leaves: the winner of output 0. Output 1 idles
    // even though a cell wants it — HOL blocking.
    ASSERT_EQ(departed.size(), 1u);
    EXPECT_EQ(departed[0].output, 0);
}

TEST(FifoSwitchTest, WindowTwoRelievesThatBlocking)
{
    InputQueuedSwitch sw(2, 1, /*window=*/2, /*rounds=*/2);
    Cell a0;
    a0.flow = 0;
    a0.input = 0;
    a0.output = 0;
    Cell a1;
    a1.flow = 1;
    a1.input = 0;
    a1.output = 1;
    Cell b0;
    b0.flow = 2;
    b0.input = 1;
    b0.output = 0;
    sw.acceptCell(a0);
    sw.acceptCell(a1);
    sw.acceptCell(b0);
    auto departed = sw.runSlot(0);
    // If input 1 wins output 0, input 0 can still send its second cell
    // to output 1; if input 0 wins, only one departs. Either way legal.
    EXPECT_GE(departed.size(), 1u);
    EXPECT_LE(departed.size(), 2u);
}

TEST(FifoSwitchTest, SaturationThroughputNearKarolBound)
{
    // Karol et al. (1987): FIFO input queueing saturates at ~58.6% per
    // link under uniform traffic, for large N; at N=16 the finite-size
    // value is a bit above 0.6.
    InputQueuedSwitch sw(16, 42);
    UniformTraffic traffic(16, 1.0, 43);
    SimConfig cfg;
    cfg.slots = 30'000;
    cfg.warmup = 5'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_GT(res.throughput, 0.55);
    EXPECT_LT(res.throughput, 0.68);
}

TEST(FifoSwitchTest, LowLoadDelayIsSmall)
{
    InputQueuedSwitch sw(16, 44);
    UniformTraffic traffic(16, 0.1, 45);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 2'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_LT(res.mean_delay, 1.0);
    // Essentially everything injected is delivered.
    EXPECT_GT(res.throughput / res.offered, 0.99);
}

TEST(FifoSwitchTest, PerInputFifoOrderPreserved)
{
    // Cells from one input to one output must depart in order (they share
    // a FIFO), even with windowing disabled.
    InputQueuedSwitch sw(4, 46);
    UniformTraffic traffic(4, 0.5, 47);
    std::map<std::pair<PortId, PortId>, int64_t> next_seq;
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 0;
    cfg.on_delivered = [&](const Cell& c, SlotTime) {
        auto key = std::make_pair(c.input, c.output);
        auto [it, inserted] = next_seq.try_emplace(key, -1);
        EXPECT_GT(c.seq, it->second);
        it->second = c.seq;
    };
    runSimulation(sw, traffic, cfg);
}

TEST(FifoSwitchTest, InvalidCellsRejected)
{
    InputQueuedSwitch sw(2, 1);
    Cell bad;
    bad.input = 5;
    bad.output = 0;
    EXPECT_THROW(sw.acceptCell(bad), UsageError);
    bad.input = 0;
    bad.output = -1;
    EXPECT_THROW(sw.acceptCell(bad), UsageError);
}

TEST(FifoSwitchTest, NameEncodesWindow)
{
    EXPECT_EQ(InputQueuedSwitch(4, 1).name(), "FIFO");
    EXPECT_EQ(InputQueuedSwitch(4, 1, 4, 2).name(), "FIFO(window=4,rounds=2)");
}

}  // namespace
}  // namespace an2
