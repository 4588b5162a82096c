// Tests for the single-switch simulation harness (an2/sim/simulator.h).
#include "an2/sim/simulator.h"

#include <gtest/gtest.h>

#include <string>

#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

TEST(SimulatorTest, OfferedLoadTracksGenerator)
{
    InputQueuedSwitch sw({.n = 8, .service = ServiceDiscipline::Fifo});
    UniformTraffic traffic(8, 0.4, 1);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 2'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_NEAR(res.offered, 0.4, 0.01);
    EXPECT_EQ(res.measured_slots, 18'000);
}

TEST(SimulatorTest, ThroughputMatchesOfferedUnderLowLoad)
{
    InputQueuedSwitch sw({.n = 8, .service = ServiceDiscipline::Fifo});
    UniformTraffic traffic(8, 0.3, 2);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 2'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_NEAR(res.throughput, res.offered, 0.01);
}

TEST(SimulatorTest, CallbackSeesEveryDeliveredCell)
{
    InputQueuedSwitch sw({.n = 4}, std::make_unique<PimMatcher>());
    UniformTraffic traffic(4, 0.5, 3);
    int64_t seen = 0;
    SimConfig cfg;
    cfg.slots = 5'000;
    cfg.warmup = 0;
    cfg.on_delivered = [&](const Cell&, SlotTime) { ++seen; };
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_EQ(seen, res.delivered);
    EXPECT_GT(seen, 0);
}

TEST(SimulatorTest, MaxOccupancyTracked)
{
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Fifo});
    PeriodicBurstTraffic traffic(4, 1.0, 5);  // 4 cells/slot to one output
    SimConfig cfg;
    cfg.slots = 100;
    cfg.warmup = 0;
    SimResult res = runSimulation(sw, traffic, cfg);
    EXPECT_GE(res.max_occupancy, 3);
}

TEST(SimulatorTest, InvalidConfigRejected)
{
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Fifo});
    UniformTraffic traffic(4, 0.5, 6);
    SimConfig bad;
    bad.slots = 0;
    EXPECT_THROW(runSimulation(sw, traffic, bad), UsageError);
    bad.slots = -5;
    EXPECT_THROW(runSimulation(sw, traffic, bad), UsageError);
    bad.slots = 10;
    bad.warmup = -1;
    EXPECT_THROW(runSimulation(sw, traffic, bad), UsageError);
}

TEST(SimulatorTest, WarmupCoveringWholeRunRejected)
{
    // warmup >= slots would leave zero measured slots (and divide the
    // throughput by a non-positive denominator); it must be refused
    // with a clear configuration error, not produce garbage.
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Fifo});
    UniformTraffic traffic(4, 0.5, 7);
    SimConfig bad;
    bad.slots = 10;
    bad.warmup = 10;
    EXPECT_THROW(runSimulation(sw, traffic, bad), UsageError);
    bad.warmup = 11;
    EXPECT_THROW(runSimulation(sw, traffic, bad), UsageError);
    try {
        runSimulation(sw, traffic, bad);
        FAIL() << "expected UsageError";
    } catch (const UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("warmup"), std::string::npos);
    }
    bad.warmup = 9;  // one measured slot: valid again
    EXPECT_NO_THROW(runSimulation(sw, traffic, bad));
}

}  // namespace
}  // namespace an2
