// Tests for the AN2 input-queued switch (an2/sim/iq_switch.h): VOQ + PIM
// scheduling, CBR frame-schedule integration, the replicated fabric's
// output stage, and cell validation. cioq_switch_test.cc covers the
// output stage's speedup phases and class service.
#include "an2/sim/iq_switch.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "an2/cbr/frame_schedule.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/matching/pim.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

std::unique_ptr<Matcher>
pim(int iterations = 4, uint64_t seed = 1)
{
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return std::make_unique<PimMatcher>(cfg);
}

Cell
vbrCell(FlowId flow, PortId in, PortId out, int64_t seq = 0)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.seq = seq;
    return c;
}

TEST(IqSwitchTest, ForwardsWithoutContention)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.acceptCell(vbrCell(0, 0, 1));
    sw.acceptCell(vbrCell(1, 2, 3));
    auto departed = sw.runSlot(0);
    EXPECT_EQ(departed.size(), 2u);
    EXPECT_EQ(sw.bufferedCells(), 0);
    EXPECT_EQ(sw.vbrForwarded(), 2);
}

TEST(IqSwitchTest, NoHolBlockingAcrossVoqs)
{
    // The FIFO form's HOL scenario (FifoSwitchTest): input 0 holds cells
    // for outputs 0 and 1, input 1 holds a cell for output 0. A VOQ
    // switch must move two cells in the first slot regardless of who
    // wins output 0.
    InputQueuedSwitch sw({.n = 2}, pim(4));
    sw.acceptCell(vbrCell(0, 0, 0));
    sw.acceptCell(vbrCell(1, 0, 1));
    sw.acceptCell(vbrCell(2, 1, 0));
    auto departed = sw.runSlot(0);
    EXPECT_EQ(departed.size(), 2u);
}

TEST(IqSwitchTest, FullLoadThroughputNearOne)
{
    InputQueuedSwitch sw({.n = 16}, pim(4, 7));
    UniformTraffic traffic(16, 1.0, 8);
    SimConfig cfg;
    cfg.slots = 30'000;
    cfg.warmup = 5'000;
    SimResult res = runSimulation(sw, traffic, cfg);
    // PIM(4) sustains nearly full switch throughput (Figure 3).
    EXPECT_GT(res.throughput, 0.93);
}

TEST(IqSwitchTest, PerFlowOrderPreservedEndToEnd)
{
    InputQueuedSwitch sw({.n = 8}, pim(4, 9));
    UniformTraffic traffic(8, 0.8, 10);
    std::map<FlowId, int64_t> last_seq;
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 0;
    cfg.on_delivered = [&](const Cell& c, SlotTime) {
        auto [it, inserted] = last_seq.try_emplace(c.flow, -1);
        EXPECT_GT(c.seq, it->second) << "flow " << c.flow << " re-ordered";
        it->second = c.seq;
    };
    runSimulation(sw, traffic, cfg);
}

TEST(IqSwitchTest, CbrCellRequiresSchedule)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    Cell c = vbrCell(0, 0, 1);
    c.cls = TrafficClass::CBR;
    EXPECT_THROW(sw.acceptCell(c), UsageError);
}

TEST(IqSwitchTest, CbrRidesItsScheduledSlots)
{
    // Reserve 2 cells/frame (frame = 4 slots) from input 1 to output 2.
    SlepianDuguidScheduler sd(4, 4);
    ASSERT_TRUE(sd.addReservation(1, 2, 2));
    InputQueuedSwitch sw({.n = 4}, pim(), &sd.schedule());

    // Queue 4 CBR cells; they must depart exactly 2 per frame.
    for (int s = 0; s < 4; ++s) {
        Cell c = vbrCell(0, 1, 2, s);
        c.cls = TrafficClass::CBR;
        sw.acceptCell(c);
    }
    int64_t departed_frame1 = 0;
    for (SlotTime slot = 0; slot < 4; ++slot)
        departed_frame1 += static_cast<int64_t>(sw.runSlot(slot).size());
    EXPECT_EQ(departed_frame1, 2);
    int64_t departed_frame2 = 0;
    for (SlotTime slot = 4; slot < 8; ++slot)
        departed_frame2 += static_cast<int64_t>(sw.runSlot(slot).size());
    EXPECT_EQ(departed_frame2, 2);
    EXPECT_EQ(sw.cbrForwarded(), 4);
}

TEST(IqSwitchTest, CbrGuaranteeUnmovedByVbrOverload)
{
    // Saturating VBR traffic must not take anything from a CBR
    // reservation: the reserved flow still gets its cells/frame.
    constexpr int kN = 4;
    constexpr int kFrame = 8;
    constexpr int kReserved = 4;  // half of input 0's link
    SlepianDuguidScheduler sd(kN, kFrame);
    ASSERT_TRUE(sd.addReservation(0, 1, kReserved));
    InputQueuedSwitch sw({.n = kN}, pim(4, 11), &sd.schedule());

    Xoshiro256 rng(12);
    int64_t cbr_seq = 0;
    int64_t cbr_delivered = 0;
    constexpr int kFrames = 200;
    for (SlotTime slot = 0; slot < kFrames * kFrame; ++slot) {
        // CBR source: always backlogged.
        Cell c = vbrCell(100, 0, 1, cbr_seq++);
        c.cls = TrafficClass::CBR;
        c.inject_slot = slot;
        sw.acceptCell(c);
        // VBR overload: every input fires a cell at a random output every
        // slot (including input 0 and output 1). One flow per connection.
        for (PortId i = 0; i < kN; ++i) {
            auto j = static_cast<PortId>(rng.nextBelow(kN));
            Cell v = vbrCell(i * kN + j, i, j);
            v.inject_slot = slot;
            sw.acceptCell(v);
        }
        for (const Cell& d : sw.runSlot(slot))
            if (d.cls == TrafficClass::CBR)
                ++cbr_delivered;
    }
    // Perfect pacing: exactly kReserved per frame once started.
    EXPECT_GE(cbr_delivered, (kFrames - 2) * kReserved);
}

TEST(IqSwitchTest, IdleCbrSlotsFallToVbr)
{
    // A reservation with no queued CBR cells must not waste slots: VBR
    // fills them (§4), tracked by vbrInCbrSlots().
    constexpr int kN = 2;
    SlepianDuguidScheduler sd(kN, 2);
    ASSERT_TRUE(sd.addReservation(0, 1, 2));  // input 0 fully reserved
    InputQueuedSwitch sw({.n = kN}, pim(4, 13), &sd.schedule());
    // Only VBR cells, on the reserved pair.
    for (int s = 0; s < 100; ++s) {
        sw.acceptCell(vbrCell(0, 0, 1, s));
        auto departed = sw.runSlot(s);
        ASSERT_EQ(departed.size(), 1u);
    }
    EXPECT_EQ(sw.vbrForwarded(), 100);
    EXPECT_EQ(sw.vbrInCbrSlots(), 100);
    EXPECT_EQ(sw.cbrForwarded(), 0);
}

TEST(IqSwitchTest, ScheduleUpdatedDynamicallyMidRun)
{
    // §4: "The slot assignment can be changed dynamically without
    // disrupting guaranteed performance." The switch holds a pointer to
    // the live schedule; adding a reservation between slots must take
    // effect immediately and leave existing flows untouched.
    constexpr int kN = 4;
    constexpr int kFrame = 8;
    SlepianDuguidScheduler sd(kN, kFrame);
    ASSERT_TRUE(sd.addReservation(0, 1, 4));
    InputQueuedSwitch sw({.n = kN}, pim(4, 31), &sd.schedule());

    auto inject = [&](FlowId f, PortId i, PortId j, SlotTime slot) {
        Cell c = vbrCell(f, i, j);
        c.cls = TrafficClass::CBR;
        c.inject_slot = slot;
        sw.acceptCell(c);
    };

    int64_t flow_a = 0;
    int64_t flow_b = 0;
    for (SlotTime slot = 0; slot < 40 * kFrame; ++slot) {
        if (slot == 20 * kFrame) {
            // Mid-run: a new flow reserves half of input 2's link. The
            // swap chains may move flow A's slots around, but its
            // cells/frame must not change.
            ASSERT_TRUE(sd.addReservation(2, 3, 4));
        }
        inject(900, 0, 1, slot);  // flow A backlogged from the start
        if (slot >= 20 * kFrame)
            inject(901, 2, 3, slot);  // flow B after its reservation
        for (const Cell& d : sw.runSlot(slot)) {
            if (d.flow == 900)
                ++flow_a;
            else if (d.flow == 901)
                ++flow_b;
        }
    }
    // Flow A: 4/frame for all 40 frames (within one frame of slack).
    EXPECT_GE(flow_a, (40 - 1) * 4);
    // Flow B: 4/frame for the last 20 frames.
    EXPECT_GE(flow_b, (20 - 2) * 4);
}

TEST(IqSwitchTest, OutputSpeedupCrossesKCellsPerSlot)
{
    // Four inputs all sending to output 0. With speedup 2 (and a matcher
    // granting up to 2 per output), two cells cross the fabric per slot,
    // while the output link still departs one cell per slot.
    PimConfig mcfg;
    mcfg.iterations = 4;
    mcfg.output_capacity = 2;
    mcfg.seed = 14;
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Strict},
                         std::make_unique<PimMatcher>(mcfg));
    for (PortId i = 0; i < 4; ++i)
        sw.acceptCell(vbrCell(i, i, 0));
    auto d0 = sw.runSlot(0);
    EXPECT_EQ(d0.size(), 1u);  // link departs 1/slot
    // Two cells crossed the replicated fabric in slot 0.
    EXPECT_EQ(sw.crossbar().cellsForwarded(), 2);
    EXPECT_EQ(sw.bufferedCells(), 3);  // 2 at inputs + 1 in output queue
    EXPECT_EQ(sw.runSlot(1).size(), 1u);
    EXPECT_EQ(sw.crossbar().cellsForwarded(), 4);  // all inputs drained
    EXPECT_EQ(sw.runSlot(2).size(), 1u);
    EXPECT_EQ(sw.runSlot(3).size(), 1u);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, PipelinedModeAddsOneSlotOfLatency)
{
    // A lone cell arriving in slot 0: the unpipelined switch forwards it
    // in slot 0; the pipelined switch computes the matching during slot
    // 0 and transmits in slot 1 (§3.2's "time to receive one cell").
    InputQueuedSwitch direct({.n = 4}, pim(4, 41));
    InputQueuedSwitch piped({.n = 4, .pipelined = true},
                            pim(4, 41));
    Cell c = vbrCell(0, 1, 2);
    direct.acceptCell(c);
    piped.acceptCell(c);
    EXPECT_EQ(direct.runSlot(0).size(), 1u);
    EXPECT_EQ(piped.runSlot(0).size(), 0u);  // pipeline fill
    EXPECT_EQ(piped.runSlot(1).size(), 1u);
    EXPECT_EQ(piped.bufferedCells(), 0);
}

TEST(IqSwitchTest, PipelinedThroughputMatchesDirectAtSaturation)
{
    // The pipeline shifts delay by one slot but must not cost
    // throughput: at full load both variants saturate identically.
    InputQueuedSwitch direct({.n = 8}, pim(4, 42));
    InputQueuedSwitch piped({.n = 8, .pipelined = true},
                            pim(4, 42));
    UniformTraffic t1(8, 1.0, 43);
    UniformTraffic t2(8, 1.0, 43);
    SimConfig cfg;
    cfg.slots = 20'000;
    cfg.warmup = 4'000;
    SimResult rd = runSimulation(direct, t1, cfg);
    SimResult rp = runSimulation(piped, t2, cfg);
    EXPECT_NEAR(rp.throughput, rd.throughput, 0.01);
    EXPECT_GT(rp.mean_delay, rd.mean_delay);  // the extra pipeline slot
}

TEST(IqSwitchTest, PipelinedCbrPriorityOverStaleMatching)
{
    // The pipelined VBR matching may claim a port that a CBR cell
    // (arriving after the matching was computed) is scheduled to use;
    // the CBR cell must win and the VBR pair is dropped for that slot.
    SlepianDuguidScheduler sd(2, 1);  // every slot schedules (0 -> 1)
    ASSERT_TRUE(sd.addReservation(0, 1, 1));
    InputQueuedSwitch sw({.n = 2, .pipelined = true},
                         pim(4, 44), &sd.schedule());
    // Slot 0: only a VBR cell on the reserved pair; the pipeline
    // computes a matching for slot 1 using the idle reservation.
    sw.acceptCell(vbrCell(10, 0, 1, 0));
    EXPECT_EQ(sw.runSlot(0).size(), 0u);
    // A CBR cell arrives before slot 1: it owns the scheduled pair.
    Cell c = vbrCell(11, 0, 1, 0);
    c.cls = TrafficClass::CBR;
    sw.acceptCell(c);
    auto departed = sw.runSlot(1);
    ASSERT_EQ(departed.size(), 1u);
    EXPECT_EQ(departed[0].cls, TrafficClass::CBR);
    // The VBR cell follows once the reservation goes idle again.
    auto later = sw.runSlot(2);
    ASSERT_EQ(later.size(), 1u);
    EXPECT_EQ(later[0].cls, TrafficClass::VBR);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, PipelinedMatchingLeavesPredictedCbrPortsFree)
{
    // Input 0 holds a CBR cell for frame slot 1 while the pipeline
    // computes slot 1's matching during slot 0. Inputs 0 and 3 both queue
    // a VBR cell for output 2. The predicted CBR claim keeps input 0 out
    // of that matching, so output 2 goes to input 3 and both cells leave
    // in slot 1. A matching blind to the claim gives output 2 to input 0
    // for some seeds; the CBR cell then takes input 0 back and output 2
    // idles.
    FrameSchedule sched(4, 2);
    sched.assign(1, 0, 1);
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        InputQueuedSwitch sw({.n = 4, .pipelined = true}, pim(4, seed),
                             &sched);
        Cell cbr = vbrCell(20, 0, 1);
        cbr.cls = TrafficClass::CBR;
        sw.acceptCell(cbr);
        sw.acceptCell(vbrCell(21, 0, 2));
        sw.acceptCell(vbrCell(22, 3, 2));
        EXPECT_EQ(sw.runSlot(0).size(), 0u);  // pipeline fill
        std::vector<FlowId> flows;
        for (const Cell& d : sw.runSlot(1))
            flows.push_back(d.flow);
        EXPECT_EQ(flows, (std::vector<FlowId>{20, 22})) << "seed " << seed;
    }
}

TEST(IqSwitchTest, SpeedupWithCbrRejected)
{
    SlepianDuguidScheduler sd(4, 4);
    EXPECT_THROW(InputQueuedSwitch({.n = 4,
                                    .speedup = 2,
                                    .service = ServiceDiscipline::Strict},
                                   pim(), &sd.schedule()),
                 UsageError);
}

TEST(IqSwitchTest, OutputCapacityAboveOneNeedsTheOutputStage)
{
    // A matcher granting k = 2 cells per output needs somewhere to put
    // the second one: a slot without the output stage rejects it.
    PimConfig mcfg;
    mcfg.output_capacity = 2;
    InputQueuedSwitch sw({.n = 4}, std::make_unique<PimMatcher>(mcfg));
    sw.acceptCell(vbrCell(0, 0, 1));
    EXPECT_THROW(sw.runSlot(0), UsageError);
}

TEST(IqSwitchTest, ReplicatedFabricHoldsCellsForADeadOutput)
{
    // Three cells for output 1 on a k = 2 fabric: two cross in slot 0
    // and one leaves. Once output 1 dies, the queued cell must stay put
    // (the switch's fault contract) and leave only after revival.
    PimConfig mcfg;
    mcfg.iterations = 4;
    mcfg.output_capacity = 2;
    mcfg.seed = 14;
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Strict},
                         std::make_unique<PimMatcher>(mcfg));
    for (PortId i : {0, 2, 3})
        sw.acceptCell(vbrCell(i, i, 1));
    EXPECT_EQ(sw.runSlot(0).size(), 1u);
    sw.setOutputPortLive(1, false);
    for (SlotTime s = 1; s < 4; ++s)
        EXPECT_EQ(sw.runSlot(s).size(), 0u) << "slot " << s;
    EXPECT_EQ(sw.bufferedCells(), 2);
    sw.setOutputPortLive(1, true);
    EXPECT_EQ(sw.runSlot(4).size(), 1u);
    EXPECT_EQ(sw.runSlot(5).size(), 1u);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, OutOfRangeOutputIsRejectedWhileAPortIsDead)
{
    // With a port dead the dead-port masks are consulted on every
    // arrival; an output outside the switch must be rejected before
    // they are indexed with it.
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.setOutputPortLive(2, false);
    EXPECT_THROW(sw.acceptCell(vbrCell(0, 0, 64)), UsageError);
    EXPECT_THROW(sw.acceptCell(vbrCell(1, 0, -1)), UsageError);
    EXPECT_EQ(sw.droppedCells(), 0);
    EXPECT_EQ(sw.invariants().accepted(), 0);
}

TEST(IqSwitchTest, RejectedCellsStayOffTheLedger)
{
    // A caller may catch a rejected cell and carry on: the next slot's
    // conservation check must still balance.
    InputQueuedSwitch sw({.n = 4}, pim());
    Cell cbr = vbrCell(0, 0, 1);
    cbr.cls = TrafficClass::CBR;
    EXPECT_THROW(sw.acceptCell(cbr), UsageError);  // no frame schedule
    sw.acceptCell(vbrCell(1, 0, 1, 0));
    EXPECT_THROW(sw.acceptCell(vbrCell(1, 0, 2, 1)),
                 UsageError);  // flow 1 is bound to output 1
    EXPECT_EQ(sw.invariants().accepted(), 1);
    EXPECT_EQ(sw.runSlot(0).size(), 1u);
    EXPECT_EQ(sw.invariants().departed(), 1);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, CrossbarAccountsForwardedCells)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.acceptCell(vbrCell(0, 0, 1));
    sw.runSlot(0);
    EXPECT_EQ(sw.crossbar().cellsForwarded(), 1);
    EXPECT_EQ(sw.crossbar().slots(), 1);
}

TEST(IqSwitchTest, InvalidConstruction)
{
    EXPECT_THROW(InputQueuedSwitch({.n = 0}, pim()), UsageError);
    EXPECT_THROW(InputQueuedSwitch({.n = 4}, nullptr), UsageError);
    SlepianDuguidScheduler sd(8, 4);
    EXPECT_THROW(InputQueuedSwitch({.n = 4}, pim(), &sd.schedule()),
                 UsageError);
}

TEST(IqSwitchTest, AcceptCellAsMergesFlowsIntoOneQueue)
{
    // Two flows at input 0 for output 1 under one queue key: they share
    // a FIFO, so arrival order is service order (no round-robin).
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.acceptCellAs(100, vbrCell(1, 0, 1, 0));
    sw.acceptCellAs(100, vbrCell(1, 0, 1, 1));
    sw.acceptCellAs(100, vbrCell(2, 0, 1, 0));
    EXPECT_TRUE(sw.vbrRequests().has(0, 1));
    EXPECT_EQ(sw.vbrRequests().numEdges(), 1);
    EXPECT_EQ(sw.vbrCellsAt(0), 3);
    std::vector<FlowId> order;
    for (SlotTime s = 0; s < 3; ++s) {
        // The wire stays raised until the VOQ's last cell departs.
        EXPECT_TRUE(sw.vbrRequests().has(0, 1)) << "slot " << s;
        for (const Cell& d : sw.runSlot(s))
            order.push_back(d.flow);
    }
    EXPECT_EQ(order, (std::vector<FlowId>{1, 1, 2}));
    EXPECT_EQ(sw.vbrCellsAt(0), 0);
    EXPECT_FALSE(sw.vbrRequests().has(0, 1));
}

TEST(IqSwitchTest, RebindMovesVbrRequestsAndCells)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    for (int s = 0; s < 3; ++s)
        sw.acceptCell(vbrCell(5, 0, 1, s));
    ASSERT_TRUE(sw.vbrRequests().has(0, 1));
    ASSERT_EQ(sw.vbrCellsAt(0), 3);
    sw.rebindFlow(0, TrafficClass::VBR, 5, 2);
    EXPECT_EQ(sw.vbrCellsAt(0), 3);
    EXPECT_FALSE(sw.vbrRequests().has(0, 1));
    EXPECT_TRUE(sw.vbrRequests().has(0, 2));
    EXPECT_EQ(sw.vbrRequests().numEdges(), 1);

    // The next slots depart on the new output, in FIFO order, and the
    // conservation ledger (checked inside runSlot) still balances.
    for (SlotTime slot = 0; slot < 3; ++slot) {
        const auto& departed = sw.runSlot(slot);
        ASSERT_EQ(departed.size(), 1u);
        EXPECT_EQ(departed[0].output, 2);
        EXPECT_EQ(departed[0].seq, slot);
    }
    EXPECT_EQ(sw.vbrRequests().numEdges(), 0);
    EXPECT_EQ(sw.invariants().accepted(), 3);
    EXPECT_EQ(sw.invariants().departed(), 3);

    // A flow with no cells at an input is a no-op there.
    sw.acceptCell(vbrCell(6, 1, 3, 0));
    sw.rebindFlow(0, TrafficClass::VBR, 6, 0);
    EXPECT_TRUE(sw.vbrRequests().has(1, 3));
    EXPECT_EQ(sw.vbrCellsAt(1), 1);
    EXPECT_FALSE(sw.vbrRequests().has(0, 0));
    EXPECT_EQ(sw.vbrCellsAt(0), 0);
}

TEST(IqSwitchTest, RebindDropsAStalePipelinedMatching)
{
    // The pipelined matching for slot 1 is computed in slot 0 and pairs
    // (0,1); moving the flow to output 2 before slot 1 must not serve
    // the vanished VOQ. The moved cell leaves one pipeline slot later.
    InputQueuedSwitch sw({.n = 4, .pipelined = true},
                         pim());
    sw.acceptCell(vbrCell(5, 0, 1, 0));
    EXPECT_EQ(sw.runSlot(0).size(), 0u);  // pipeline fill
    sw.rebindFlow(0, TrafficClass::VBR, 5, 2);
    EXPECT_EQ(sw.runSlot(1).size(), 0u);
    const auto& departed = sw.runSlot(2);
    ASSERT_EQ(departed.size(), 1u);
    EXPECT_EQ(departed[0].output, 2);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, RebindAtADeadInputRaisesNoWireUntilRevival)
{
    // Input 2 queues flows 7, 8 and 9 for outputs 0, 2 and 3, then dies:
    // its wires drop and its cells stay. While it is dead, flow 8 moves
    // to output 1 (a VOQ that fills while dead) and flow 9 joins flow 7
    // at output 0 (a VOQ that empties while dead); no wire rises. At
    // revival exactly the wires of the VOQs still queued rise again.
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.acceptCell(vbrCell(7, 2, 0));
    sw.acceptCell(vbrCell(8, 2, 2));
    sw.acceptCell(vbrCell(9, 2, 3));
    ASSERT_EQ(sw.vbrRequests().numEdges(), 3);
    sw.setInputPortLive(2, false);
    EXPECT_EQ(sw.vbrRequests().numEdges(), 0);
    EXPECT_EQ(sw.vbrCellsAt(2), 3);

    const uint64_t epoch = sw.vbrRequests().epoch();
    sw.rebindFlow(2, TrafficClass::VBR, 8, 1);
    sw.rebindFlow(2, TrafficClass::VBR, 9, 0);
    EXPECT_EQ(sw.vbrRequests().numEdges(), 0);
    EXPECT_EQ(sw.vbrRequests().epoch(), epoch);

    sw.setInputPortLive(2, true);
    EXPECT_EQ(sw.vbrRequests().numEdges(), 2);
    EXPECT_TRUE(sw.vbrRequests().has(2, 0));
    EXPECT_TRUE(sw.vbrRequests().has(2, 1));
    EXPECT_FALSE(sw.vbrRequests().has(2, 2));
    EXPECT_FALSE(sw.vbrRequests().has(2, 3));
}

/** Check every request wire of `sw` against its VOQs (fillOccupancy)
    and its ports' liveness; returns the raised wires, one flag per
    pair. */
std::vector<char>
expectWiresFollowQueues(const InputQueuedSwitch& sw, int step)
{
    const int n = sw.size();
    std::vector<int32_t> voq(static_cast<size_t>(n * n));
    std::vector<int32_t> backlog(static_cast<size_t>(n));
    sw.fillOccupancy(voq.data(), backlog.data());
    std::vector<char> raised;
    for (PortId i = 0; i < n; ++i) {
        for (PortId j = 0; j < n; ++j) {
            const bool want = sw.inputPortLive(i) && sw.outputPortLive(j) &&
                              voq[static_cast<size_t>(i * n + j)] > 0;
            const bool has = sw.vbrRequests().has(i, j);
            if (has != want)
                ADD_FAILURE() << sw.name() << " n=" << n << " step " << step
                              << ": wire (" << i << "," << j << ") is "
                              << has;
            raised.push_back(has ? 1 : 0);
        }
    }
    return raised;
}

TEST(IqSwitchWireSync, WiresFollowQueuesAndLivenessOnRandomStreams)
{
    // A seeded stream of arrivals, slots, port deaths and revivals (some
    // of ports with nothing queued), and flow rebinds, on the plain,
    // pipelined and CIOQ (S = 2) forms. After every step the raised
    // wires are exactly the queued pairs between live ports, and the
    // epoch moves iff that set changed.
    constexpr int kFlows = 3;  // flows per input
    for (int n : {16, 70}) {
        const IqSwitchConfig configs[] = {
            {.n = n},
            {.n = n, .pipelined = true},
            {.n = n, .speedup = 2, .service = ServiceDiscipline::Strict}};
        for (const IqSwitchConfig& cfg : configs) {
            InputQueuedSwitch sw(cfg, pim(4, static_cast<uint64_t>(n)));
            Xoshiro256 rng(static_cast<uint64_t>(
                n * 10 + cfg.speedup + (cfg.pipelined ? 5 : 0)));
            const auto draw = [&rng](int below) {
                return static_cast<int>(
                    rng.nextBelow(static_cast<uint64_t>(below)));
            };
            // Flow k of input i is i * kFlows + k, bound to an output
            // until it is rebound.
            std::vector<PortId> bound(static_cast<size_t>(n * kFlows));
            for (PortId& out : bound)
                out = draw(n);
            int idle_flips = 0;
            SlotTime slot = 0;
            std::vector<char> before = expectWiresFollowQueues(sw, -1);
            for (int step = 0; step < 3000; ++step) {
                const PortId i = draw(n);
                const PortId j = draw(n);
                const FlowId f = i * kFlows + draw(kFlows);
                const int op = draw(100);
                const uint64_t epoch = sw.vbrRequests().epoch();
                if (op < 50) {
                    sw.acceptCell(
                        vbrCell(f, i, bound[static_cast<size_t>(f)], step));
                } else if (op < 70) {
                    sw.runSlot(slot++);
                } else if (op < 80) {
                    idle_flips += sw.vbrCellsAt(i) == 0 ? 1 : 0;
                    sw.setInputPortLive(i, draw(2) == 0);
                } else if (op < 90) {
                    sw.setOutputPortLive(j, draw(2) == 0);
                } else {
                    bound[static_cast<size_t>(f)] = j;
                    sw.rebindFlow(i, TrafficClass::VBR, f, j);
                }
                std::vector<char> after = expectWiresFollowQueues(sw, step);
                ASSERT_EQ(sw.vbrRequests().epoch() != epoch, after != before)
                    << sw.name() << " n=" << n << " step " << step
                    << " op " << op;
                before = std::move(after);
            }
            EXPECT_GT(idle_flips, 0) << sw.name() << " n=" << n;
        }
    }
}

TEST(IqSwitchTest, RebindCbrFlowRidesTheNewReservation)
{
    SlepianDuguidScheduler sd(4, 4);
    ASSERT_TRUE(sd.addReservation(0, 1, 1));
    InputQueuedSwitch sw({.n = 4}, pim(), &sd.schedule());
    for (int s = 0; s < 2; ++s) {
        Cell c = vbrCell(9, 0, 1, s);
        c.cls = TrafficClass::CBR;
        sw.acceptCell(c);
    }
    // Move the reservation and the queued cells to output 3.
    sd.removeReservation(0, 1, 1);
    ASSERT_TRUE(sd.addReservation(0, 3, 1));
    sw.rebindFlow(0, TrafficClass::CBR, 9, 3);
    std::vector<int64_t> seqs;
    for (SlotTime slot = 0; slot < 8; ++slot) {
        for (const Cell& d : sw.runSlot(slot)) {
            EXPECT_EQ(d.output, 3);
            seqs.push_back(d.seq);
        }
    }
    EXPECT_EQ(seqs, (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(sw.cbrForwarded(), 2);
    EXPECT_EQ(sw.vbrRequests().numEdges(), 0);  // CBR never requests
}

TEST(IqSwitchTest, PurgeCbrFlowKeepsTheLedgerBalanced)
{
    SlepianDuguidScheduler sd(4, 4);
    ASSERT_TRUE(sd.addReservation(0, 1, 1));
    InputQueuedSwitch sw({.n = 4}, pim(), &sd.schedule());
    auto cbr = [&](FlowId f, int64_t seq) {
        Cell c = vbrCell(f, 0, 1, seq);
        c.cls = TrafficClass::CBR;
        sw.acceptCell(c);
    };
    for (int s = 0; s < 3; ++s)
        cbr(9, s);
    cbr(10, 0);
    EXPECT_EQ(sw.purgeCbrFlow(0, 9), 3);
    EXPECT_EQ(sw.purgeCbrFlow(1, 9), 0);  // nothing queued at input 1
    EXPECT_EQ(sw.invariants().purged(), 3);
    EXPECT_EQ(sw.bufferedCells(), 1);
    // runSlot checks accepted == departed + purged + buffered each slot.
    int64_t departed = 0;
    for (SlotTime slot = 0; slot < 4; ++slot)
        for (const Cell& d : sw.runSlot(slot)) {
            EXPECT_EQ(d.flow, 10);
            ++departed;
        }
    EXPECT_EQ(departed, 1);
    EXPECT_EQ(sw.invariants().accepted(), 4);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(IqSwitchTest, NameDescribesConfiguration)
{
    InputQueuedSwitch sw({.n = 4}, pim(4));
    EXPECT_EQ(sw.name(), "IQ[PIM(4)]");
}

}  // namespace
}  // namespace an2
