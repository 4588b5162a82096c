// Tests for the AN2 switch's CIOQ configuration (an2/sim/iq_switch.h with
// the output stage on): speedup phases, per-class output scheduling
// (strict priority and WRR), conservation, fault masking, determinism,
// and the obs probe contract.
#include "an2/sim/iq_switch.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "an2/base/error.h"
#include "an2/matching/serial_greedy.h"
#include "an2/obs/recorder.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

std::unique_ptr<InputQueuedSwitch>
makeCioq(int n, int speedup,
         ServiceDiscipline service = ServiceDiscipline::Strict,
         uint64_t seed = 7)
{
    return std::make_unique<InputQueuedSwitch>(
        IqSwitchConfig{.n = n, .speedup = speedup, .service = service},
        std::make_unique<SerialGreedyMatcher>(true, seed));
}

Cell
cell(FlowId flow, PortId in, PortId out, TrafficClass cls,
     int64_t seq = 0)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.cls = cls;
    c.seq = seq;
    return c;
}

TEST(CioqTest, ConfigIsValidated)
{
    EXPECT_THROW(makeCioq(4, 0), UsageError);
    EXPECT_THROW(makeCioq(4, 5), UsageError);
    EXPECT_THROW(makeCioq(0, 2), UsageError);
    // Speedup needs the output stage, which excludes pipelining.
    EXPECT_THROW(makeCioq(4, 2, ServiceDiscipline::None), UsageError);
    EXPECT_THROW(InputQueuedSwitch(
                     {.n = 4,
                      .pipelined = true,
                      .service = ServiceDiscipline::Strict},
                     std::make_unique<SerialGreedyMatcher>(true, 1)),
                 UsageError);
    IqSwitchConfig cfg{
        .n = 4, .speedup = 2, .service = ServiceDiscipline::Wrr};
    cfg.wrr_weights = {4, 0, 1};
    EXPECT_THROW(InputQueuedSwitch(
                     cfg, std::make_unique<SerialGreedyMatcher>(true, 1)),
                 UsageError);
}

TEST(CioqTest, NameDescribesMatcherSpeedupAndService)
{
    EXPECT_EQ(makeCioq(4, 2)->name(),
              "CIOQ[Greedy(random-order),S=2,strict]");
    EXPECT_EQ(makeCioq(4, 3, ServiceDiscipline::Wrr)->name(),
              "CIOQ[Greedy(random-order),S=3,wrr]");
}

TEST(CioqTest, OneDeparturePerOutputPerSlot)
{
    // Three inputs each hold a cell for output 1: with S = 2 two of
    // them cross into the output queue in the first slot, but the line
    // rate still caps departures at one per slot.
    auto sw = makeCioq(4, 2);
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR));
    sw->acceptCell(cell(1, 2, 1, TrafficClass::VBR));
    sw->acceptCell(cell(2, 3, 1, TrafficClass::VBR));
    EXPECT_EQ(sw->runSlot(0).size(), 1u);
    EXPECT_EQ(sw->runSlot(1).size(), 1u);
    EXPECT_EQ(sw->runSlot(2).size(), 1u);
    EXPECT_EQ(sw->runSlot(3).size(), 0u);
    EXPECT_EQ(sw->bufferedCells(), 0);
}

TEST(CioqTest, SpeedupBoundsPhasesAndCellsCrossed)
{
    // A single input holds 4 cells for distinct outputs. With S = 2 it
    // can send at most 2 per slot; with S = 4, all 4 leave at once
    // (each phase's matching grants one VOQ of the input).
    for (int speedup : {1, 2, 4}) {
        auto sw = makeCioq(4, speedup);
        for (PortId j = 0; j < 4; ++j)
            sw->acceptCell(cell(j, 0, j, TrafficClass::VBR));
        auto departed = sw->runSlot(0);
        EXPECT_EQ(static_cast<int>(departed.size()), speedup)
            << "S=" << speedup;
    }
}

TEST(CioqTest, PhasesStopEarlyWhenRequestsDrain)
{
    // One lone cell: phase 1 moves it, later phases see an empty
    // request matrix and are skipped entirely.
    auto sw = makeCioq(4, 4);
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR));
    sw->runSlot(0);
    EXPECT_EQ(sw->phasesRun(), 1);
    // An idle slot runs no phases at all.
    sw->runSlot(1);
    EXPECT_EQ(sw->phasesRun(), 1);
}

TEST(CioqTest, StrictPriorityServesCbrThenVbrThenBe)
{
    // Load one cell of each class into the same output's queues in
    // reverse priority order; strict priority must emit CBR, VBR, BE.
    auto sw = makeCioq(4, 4);
    sw->acceptCell(cell(0, 0, 1, TrafficClass::BE));
    sw->acceptCell(cell(1, 2, 1, TrafficClass::VBR));
    sw->acceptCell(cell(2, 3, 1, TrafficClass::CBR));
    std::vector<TrafficClass> order;
    for (SlotTime s = 0; s < 3; ++s) {
        auto departed = sw->runSlot(s);
        ASSERT_EQ(departed.size(), 1u) << "slot " << s;
        order.push_back(departed[0].cls);
    }
    EXPECT_EQ(order,
              (std::vector<TrafficClass>{TrafficClass::CBR,
                                         TrafficClass::VBR,
                                         TrafficClass::BE}));
}

TEST(CioqTest, WrrInterleavesClassesByWeight)
{
    // A single input feeds one output (crossing order = VOQ FIFO order,
    // 4 cells per slot at S = 4), so the output's class queues fill
    // deterministically. With weights {2, 1, 1} the WRR pointer must
    // emit the exact cycle CBR, CBR, VBR, BE — best-effort is never
    // starved, unlike strict priority.
    IqSwitchConfig cfg{
        .n = 4, .speedup = 4, .service = ServiceDiscipline::Wrr};
    cfg.wrr_weights = {2, 1, 1};
    InputQueuedSwitch sw(cfg, std::make_unique<SerialGreedyMatcher>(true, 7));
    const TrafficClass batch[] = {TrafficClass::CBR, TrafficClass::VBR,
                                  TrafficClass::BE, TrafficClass::CBR};
    int64_t seq = 0;
    for (int rep = 0; rep < 2; ++rep)
        for (TrafficClass cls : batch)
            sw.acceptCell(cell(static_cast<FlowId>(cls), 0, 1, cls, seq++));
    std::vector<TrafficClass> order;
    for (SlotTime s = 0; s < 8; ++s) {
        auto departed = sw.runSlot(s);
        ASSERT_EQ(departed.size(), 1u) << "slot " << s;
        order.push_back(departed[0].cls);
    }
    EXPECT_EQ(order,
              (std::vector<TrafficClass>{
                  TrafficClass::CBR, TrafficClass::CBR, TrafficClass::VBR,
                  TrafficClass::BE, TrafficClass::CBR, TrafficClass::CBR,
                  TrafficClass::VBR, TrafficClass::BE}));
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(CioqTest, WrrIsWorkConservingWhenClassesEmpty)
{
    // Only BE traffic present: WRR must still serve every slot rather
    // than idling on empty higher-priority queues.
    IqSwitchConfig cfg{
        .n = 4, .speedup = 2, .service = ServiceDiscipline::Wrr};
    InputQueuedSwitch sw(cfg, std::make_unique<SerialGreedyMatcher>(true, 9));
    for (int k = 0; k < 3; ++k)
        sw.acceptCell(cell(0, 0, 1, TrafficClass::BE, k));
    for (SlotTime s = 0; s < 3; ++s)
        EXPECT_EQ(sw.runSlot(s).size(), 1u) << "slot " << s;
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(CioqTest, ConservationHoldsUnderMultiClassLoad)
{
    auto sw = makeCioq(8, 2);
    MultiClassUniformTraffic traffic(8, 0.9, 42);
    SimConfig cfg;
    cfg.slots = 10'000;
    cfg.warmup = 0;
    SimResult res = runSimulation(*sw, traffic, cfg);
    // Every injected cell is delivered, still buffered, or accounted
    // as dropped (none here: no faults). The internal InvariantChecker
    // has already verified conservation at every slot boundary.
    EXPECT_EQ(res.injected,
              res.delivered + sw->bufferedCells() + sw->droppedCells());
    EXPECT_EQ(sw->droppedCells(), 0);
    EXPECT_GT(res.delivered, 0);
}

TEST(CioqTest, PerFlowOrderPreservedEndToEnd)
{
    auto sw = makeCioq(8, 3);
    MultiClassUniformTraffic traffic(8, 0.8, 10);
    std::map<FlowId, int64_t> last_seq;
    SimConfig cfg;
    cfg.slots = 10'000;
    cfg.warmup = 0;
    cfg.on_delivered = [&](const Cell& c, SlotTime) {
        auto [it, inserted] = last_seq.try_emplace(c.flow, -1);
        EXPECT_GT(c.seq, it->second) << "flow " << c.flow << " re-ordered";
        it->second = c.seq;
    };
    runSimulation(*sw, traffic, cfg);
}

TEST(CioqTest, SpeedupTwoTracksOutputQueueing)
{
    // The Cogill-Lall headline at test scale: greedy maximal matching
    // at S = 2 stays within 10% of the ideal output-queued switch's
    // mean delay at load 0.9, while S = 1 is far off it.
    const int n = 16;
    SimConfig cfg;
    cfg.slots = 40'000;
    cfg.warmup = 5'000;

    InputQueuedSwitch oq({.n = n, .service = ServiceDiscipline::Fifo});
    UniformTraffic t0(n, 0.9, 77);
    const double oq_delay = runSimulation(oq, t0, cfg).mean_delay;

    auto s2 = makeCioq(n, 2);
    UniformTraffic t1(n, 0.9, 77);
    const double s2_delay = runSimulation(*s2, t1, cfg).mean_delay;

    auto s1 = makeCioq(n, 1);
    UniformTraffic t2(n, 0.9, 77);
    const double s1_delay = runSimulation(*s1, t2, cfg).mean_delay;

    EXPECT_LT(s2_delay, oq_delay * 1.10);
    EXPECT_GT(s1_delay, oq_delay * 1.50);
}

TEST(CioqTest, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        auto sw = makeCioq(8, 2, ServiceDiscipline::Wrr, 123);
        MultiClassUniformTraffic traffic(8, 0.9, 5);
        SimConfig cfg;
        cfg.slots = 5'000;
        cfg.warmup = 500;
        return runSimulation(*sw, traffic, cfg);
    };
    SimResult a = run();
    SimResult b = run();
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.mean_delay, b.mean_delay);
    EXPECT_EQ(a.throughput, b.throughput);
}

// ---------------------------------------------------------------- faults

TEST(CioqTest, DeadInputDropsArrivalsAtTheLineCard)
{
    auto sw = makeCioq(4, 2);
    sw->setInputPortLive(0, false);
    EXPECT_FALSE(sw->inputPortLive(0));
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR));
    EXPECT_EQ(sw->bufferedCells(), 0);
    EXPECT_EQ(sw->droppedCells(), 1);
    EXPECT_EQ(sw->runSlot(0).size(), 0u);
    // Revival re-admits traffic.
    sw->setInputPortLive(0, true);
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR, 1));
    EXPECT_EQ(sw->runSlot(1).size(), 1u);
}

TEST(CioqTest, DeadOutputHoldsItsQueuesUntilRevival)
{
    auto sw = makeCioq(4, 2);
    // Queue a cell, let it cross into the output queue, then kill the
    // output: the buffered cell must be held, not lost.
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR));
    sw->acceptCell(cell(1, 2, 1, TrafficClass::VBR, 1));
    EXPECT_EQ(sw->runSlot(0).size(), 1u);
    sw->setOutputPortLive(1, false);
    EXPECT_FALSE(sw->outputPortLive(1));
    // New arrivals for the dead output are dropped at the line card;
    // the queued cell waits.
    sw->acceptCell(cell(2, 3, 1, TrafficClass::VBR));
    EXPECT_EQ(sw->droppedCells(), 1);
    for (SlotTime s = 1; s < 4; ++s)
        EXPECT_EQ(sw->runSlot(s).size(), 0u) << "slot " << s;
    EXPECT_EQ(sw->bufferedCells(), 1);
    sw->setOutputPortLive(1, true);
    EXPECT_EQ(sw->runSlot(4).size(), 1u);
    EXPECT_EQ(sw->bufferedCells(), 0);
}

TEST(CioqTest, MaskedFaultRunStaysConservative)
{
    auto sw = makeCioq(8, 2);
    MultiClassUniformTraffic traffic(8, 0.8, 17);
    SimConfig cfg;
    cfg.slots = 4'000;
    cfg.warmup = 0;
    int64_t injected = 0;
    int64_t delivered = 0;
    std::vector<Cell> arrivals;
    for (SlotTime slot = 0; slot < cfg.slots; ++slot) {
        if (slot == 1'000)
            sw->setOutputPortLive(3, false);
        if (slot == 2'000) {
            sw->setOutputPortLive(3, true);
            sw->setInputPortLive(5, false);
        }
        if (slot == 3'000)
            sw->setInputPortLive(5, true);
        arrivals.clear();
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals) {
            ++injected;
            sw->acceptCell(c);
        }
        delivered += static_cast<int64_t>(sw->runSlot(slot).size());
    }
    EXPECT_GT(sw->droppedCells(), 0);
    EXPECT_EQ(injected,
              delivered + sw->bufferedCells() + sw->droppedCells());
}

// ------------------------------------------------------------------ obs

#ifndef AN2_OBS_DISABLED

TEST(CioqTest, ObsCountersFollowTheProbeContract)
{
    obs::RecorderConfig rc;
    rc.ports = 8;
    rc.track_latency = true;
    obs::Recorder rec(rc);
    obs::attach(&rec);
    auto sw = makeCioq(8, 2);
    MultiClassUniformTraffic traffic(8, 0.9, 23);
    SimConfig cfg;
    cfg.slots = 4'000;
    cfg.warmup = 0;
    SimResult res = runSimulation(*sw, traffic, cfg);
    obs::detach();

    // speedup_phases counts matching phases: at least one per busy
    // slot, at most S per slot.
    EXPECT_EQ(rec.counter(obs::Counter::SpeedupPhases), sw->phasesRun());
    EXPECT_GT(sw->phasesRun(), 0);
    EXPECT_LE(sw->phasesRun(), 2 * cfg.slots);

    // Per-class delivery counters partition total deliveries.
    const int64_t cbr = rec.counter(obs::Counter::CbrCellsDelivered);
    const int64_t vbr = rec.counter(obs::Counter::VbrCellsDelivered);
    const int64_t be = rec.counter(obs::Counter::BeCellsDelivered);
    EXPECT_EQ(cbr + vbr + be, res.delivered);
    EXPECT_EQ(rec.counter(obs::Counter::CellsDelivered), res.delivered);
    // The multi-class workload exercises all three classes.
    EXPECT_GT(cbr, 0);
    EXPECT_GT(vbr, 0);
    EXPECT_GT(be, 0);

    // The output-queue high-water-mark gauge mirrors the accessor.
    EXPECT_EQ(rec.gauge(obs::Gauge::OutputQueueHwm),
              sw->outputQueueHighWaterMark());
    EXPECT_GT(sw->outputQueueHighWaterMark(), 0);
}

TEST(CioqTest, FaultDropsAreCounted)
{
    obs::RecorderConfig rc;
    rc.ports = 4;
    obs::Recorder rec(rc);
    obs::attach(&rec);
    auto sw = makeCioq(4, 2);
    sw->setInputPortLive(0, false);
    sw->acceptCell(cell(0, 0, 1, TrafficClass::VBR));
    sw->runSlot(0);
    obs::detach();
    EXPECT_EQ(rec.counter(obs::Counter::CellsDroppedByFaults), 1);
}

#endif  // AN2_OBS_DISABLED

}  // namespace
}  // namespace an2
