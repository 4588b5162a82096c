// Tests for the fault-injection subsystem (an2/fault/): plan parsing,
// deterministic injection, graceful degradation of every switch model,
// CBR schedule repair, the invariant checker, and link outages.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "an2/base/error.h"
#include "an2/cbr/admission.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/fault/cbr_repair.h"
#include "an2/fault/fault_plan.h"
#include "an2/fault/injector.h"
#include "an2/fault/invariants.h"
#include "an2/matching/matching.h"
#include "an2/matching/pim.h"
#include "an2/network/link.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

using fault::CbrRepairEngine;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InvariantChecker;

std::unique_ptr<Matcher>
pim(int iterations = 4, uint64_t seed = 1)
{
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    return std::make_unique<PimMatcher>(cfg);
}

Cell
vbrCell(PortId in, PortId out, FlowId flow = 0, int64_t seq = 0)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.seq = seq;
    return c;
}

// ---------------------------------------------------------------------------
// FaultPlan parsing

TEST(FaultPlanTest, ParsesAndRoundTrips)
{
    const std::string spec =
        "out_down(3)@4000,out_up(3)@8000,in_down(0)@100,link_down(2)@50,"
        "link_up(2)@60,drop(0.001),corrupt(0.0005)";
    FaultPlan plan = FaultPlan::parse(spec);
    EXPECT_EQ(plan.events.size(), 5u);
    EXPECT_DOUBLE_EQ(plan.drop_prob, 0.001);
    EXPECT_DOUBLE_EQ(plan.corrupt_prob, 0.0005);
    EXPECT_TRUE(plan.probabilistic());
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.maxPortTarget(), 3);
    EXPECT_EQ(plan.maxLinkTarget(), 2);

    // Events are sorted by slot.
    for (size_t i = 1; i < plan.events.size(); ++i)
        EXPECT_LE(plan.events[i - 1].slot, plan.events[i].slot);

    // The canonical string re-parses to the same plan.
    FaultPlan again = FaultPlan::parse(plan.str());
    EXPECT_EQ(again.str(), plan.str());
    EXPECT_EQ(again.events.size(), plan.events.size());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan)
{
    FaultPlan plan = FaultPlan::parse("");
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.probabilistic());
    EXPECT_EQ(plan.maxPortTarget(), -1);
    EXPECT_EQ(plan.maxLinkTarget(), -1);
}

TEST(FaultPlanTest, ErrorsNameTheOffendingToken)
{
    auto expectError = [](const std::string& spec, const std::string& token) {
        try {
            FaultPlan::parse(spec);
            FAIL() << "parse accepted: " << spec;
        } catch (const UsageError& e) {
            EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
                << "error for '" << spec << "' does not name '" << token
                << "': " << e.what();
        }
    };
    expectError("bogus(1)@5", "bogus(1)@5");
    expectError("out_down(1)", "out_down(1)");          // missing @slot
    expectError("out_down(x)@5", "out_down(x)@5");      // bad target
    expectError("out_down(1)@x", "out_down(1)@x");      // bad slot
    expectError("drop(1.5)", "drop(1.5)");              // prob out of range
    expectError("drop(nan)", "drop(nan)");              // non-finite prob
    expectError("out_down(1)@5,,out_up(1)@9", ",,");    // empty token
    expectError("drop(0.1)@5", "drop(0.1)@5");          // modes take no slot
}

TEST(FaultPlanTest, ValidatePortsRejectsOutOfRange)
{
    FaultPlan plan = FaultPlan::parse("out_down(7)@10");
    EXPECT_NO_THROW(plan.validatePorts(8));
    EXPECT_THROW(plan.validatePorts(4), UsageError);
    // Link targets are not ports; a link-only plan passes any size.
    EXPECT_NO_THROW(FaultPlan::parse("link_down(9)@1").validatePorts(2));
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, AppliesScriptedEventsAtTheirSlots)
{
    FaultPlan plan = FaultPlan::parse("in_down(1)@10,out_down(2)@10,"
                                      "in_up(1)@20,link_down(0)@15");
    FaultInjector inj(4, plan, 42);
    EXPECT_TRUE(inj.inputLive(1));

    inj.beginSlot(9);
    EXPECT_TRUE(inj.inputLive(1));
    EXPECT_EQ(inj.eventsApplied(), 0);

    inj.beginSlot(10);
    EXPECT_FALSE(inj.inputLive(1));
    EXPECT_FALSE(inj.outputLive(2));
    EXPECT_TRUE(inj.linkUp(0));
    EXPECT_EQ(inj.deadInputs(), 1);
    EXPECT_EQ(inj.deadOutputs(), 1);

    inj.beginSlot(15);
    EXPECT_FALSE(inj.linkUp(0));

    inj.beginSlot(20);
    EXPECT_TRUE(inj.inputLive(1));
    EXPECT_EQ(inj.deadInputs(), 0);
    EXPECT_EQ(inj.eventsApplied(), 4);
}

TEST(FaultInjectorTest, DeadPortArrivalsDrop)
{
    FaultPlan plan = FaultPlan::parse("in_down(0)@0,out_down(3)@0");
    FaultInjector inj(4, plan, 1);
    inj.beginSlot(0);
    EXPECT_EQ(inj.classifyArrival(vbrCell(0, 1)),
              FaultInjector::Verdict::Drop);  // dead input
    EXPECT_EQ(inj.classifyArrival(vbrCell(1, 3)),
              FaultInjector::Verdict::Drop);  // dead output
    EXPECT_EQ(inj.classifyArrival(vbrCell(1, 2)),
              FaultInjector::Verdict::Deliver);
    EXPECT_EQ(inj.cellsDropped(), 2);
}

TEST(FaultInjectorTest, VerdictSequenceIsSeedDeterministic)
{
    FaultPlan plan = FaultPlan::parse("drop(0.3),corrupt(0.2)");
    FaultInjector a(4, plan, 123);
    FaultInjector b(4, plan, 123);
    FaultInjector c(4, plan, 456);
    a.beginSlot(0);
    b.beginSlot(0);
    c.beginSlot(0);
    bool any_difference_from_c = false;
    for (int k = 0; k < 200; ++k) {
        Cell cell = vbrCell(k % 4, (k + 1) % 4);
        auto va = a.classifyArrival(cell);
        EXPECT_EQ(va, b.classifyArrival(cell)) << "draw " << k;
        if (va != c.classifyArrival(cell))
            any_difference_from_c = true;
    }
    EXPECT_TRUE(any_difference_from_c);
    EXPECT_GT(a.cellsDropped(), 0);
    EXPECT_GT(a.cellsCorrupted(), 0);
}

TEST(FaultInjectorTest, ListenersSeeTransitionsAndSlotWork)
{
    struct Spy final : fault::FaultListener
    {
        int downs = 0, ups = 0, link_downs = 0, slots = 0;
        void onPortDown(bool, PortId, SlotTime) override { ++downs; }
        void onPortUp(bool, PortId, SlotTime) override { ++ups; }
        void onLinkDown(int, SlotTime) override { ++link_downs; }
        void slotWork(SlotTime) override { ++slots; }
    };
    Spy spy;
    FaultPlan plan = FaultPlan::parse("out_down(1)@1,out_up(1)@3,"
                                      "link_down(0)@2");
    FaultInjector inj(4, plan, 7);
    inj.addListener(&spy);
    for (SlotTime s = 0; s < 5; ++s)
        inj.beginSlot(s);
    EXPECT_EQ(spy.downs, 1);
    EXPECT_EQ(spy.ups, 1);
    EXPECT_EQ(spy.link_downs, 1);
    EXPECT_EQ(spy.slots, 5);
}

// ---------------------------------------------------------------------------
// Switch models under port failures

TEST(IqSwitchFaultTest, DeadOutputDropsNewArrivalsAndHoldsQueued)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    // Two cells queued for output 1 before the failure.
    sw.acceptCell(vbrCell(0, 1, 0, 0));
    sw.acceptCell(vbrCell(2, 1, 1, 0));

    sw.setOutputPortLive(1, false);
    EXPECT_FALSE(sw.outputPortLive(1));

    // Arrivals for the dead output are dropped and counted.
    sw.acceptCell(vbrCell(3, 1, 2, 0));
    EXPECT_EQ(sw.droppedCells(), 1);
    EXPECT_EQ(sw.bufferedCells(), 2);

    // The queued cells stay buffered: nothing can be forwarded to 1.
    for (SlotTime s = 0; s < 5; ++s) {
        const auto& departed = sw.runSlot(s);
        for (const Cell& c : departed)
            EXPECT_NE(c.output, 1);
    }
    EXPECT_EQ(sw.bufferedCells(), 2);

    // Revival re-exposes the queued requests; both cells drain.
    sw.setOutputPortLive(1, true);
    int drained = 0;
    for (SlotTime s = 5; s < 10; ++s)
        drained += static_cast<int>(sw.runSlot(s).size());
    EXPECT_EQ(drained, 2);
    EXPECT_EQ(sw.bufferedCells(), 0);
    EXPECT_EQ(sw.invariants().accepted(), 2);
    EXPECT_EQ(sw.invariants().departed(), 2);
    EXPECT_EQ(sw.invariants().dropped(), 1);
}

TEST(IqSwitchFaultTest, DeadInputDropsArrivals)
{
    InputQueuedSwitch sw({.n = 4}, pim());
    sw.setInputPortLive(2, false);
    sw.acceptCell(vbrCell(2, 0));
    EXPECT_EQ(sw.droppedCells(), 1);
    EXPECT_EQ(sw.bufferedCells(), 0);
    sw.acceptCell(vbrCell(1, 0));
    EXPECT_EQ(sw.runSlot(0).size(), 1u);
}

TEST(IqSwitchFaultTest, PipelinedMatchingSkipsPortsKilledMidPipeline)
{
    // Pipelined mode computes slot t+1's matching during slot t. Kill a
    // port between the two: the stale pairing must not be applied.
    InputQueuedSwitch sw({.n = 4, .pipelined = true}, pim());
    sw.acceptCell(vbrCell(0, 1));
    sw.runSlot(0);  // computes the (0 -> 1) pairing for slot 1
    sw.setOutputPortLive(1, false);
    EXPECT_EQ(sw.runSlot(1).size(), 0u);  // stale pairing suppressed
    sw.setOutputPortLive(1, true);
    int drained = 0;
    for (SlotTime s = 2; s < 6; ++s)
        drained += static_cast<int>(sw.runSlot(s).size());
    EXPECT_EQ(drained, 1);
}

TEST(FifoSwitchFaultTest, DeadOutputBlocksHeadOfLine)
{
    InputQueuedSwitch sw(4, /*seed=*/9, /*window=*/2);
    // Queue both cells, then kill the head's output: the head cannot be
    // served and blocks the cell behind it (FIFO HOL semantics extend to
    // failures — even with window 2 the exposure stops at the dead cell).
    sw.acceptCell(vbrCell(0, 2, 0, 0));
    sw.acceptCell(vbrCell(0, 1, 1, 0));
    sw.setOutputPortLive(2, false);
    EXPECT_EQ(sw.runSlot(0).size(), 0u);
    EXPECT_EQ(sw.bufferedCells(), 2);
    sw.setOutputPortLive(2, true);
    int drained = 0;
    for (SlotTime s = 1; s < 4; ++s)
        drained += static_cast<int>(sw.runSlot(s).size());
    EXPECT_EQ(drained, 2);
}

TEST(FifoSwitchFaultTest, DeadInputDropsAndCounts)
{
    InputQueuedSwitch sw(4, 9);
    sw.setInputPortLive(0, false);
    sw.acceptCell(vbrCell(0, 1));
    EXPECT_EQ(sw.droppedCells(), 1);
    EXPECT_EQ(sw.invariants().dropped(), 1);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(OqSwitchFaultTest, DeadOutputHoldsQueueUntilRevival)
{
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::Fifo});
    sw.acceptCell(vbrCell(0, 2, 0, 0));
    sw.setOutputPortLive(2, false);
    sw.acceptCell(vbrCell(1, 2, 1, 0));  // dropped: dead output
    EXPECT_EQ(sw.droppedCells(), 1);
    EXPECT_EQ(sw.runSlot(0).size(), 0u);  // queue held
    EXPECT_EQ(sw.bufferedCells(), 1);
    sw.setOutputPortLive(2, true);
    EXPECT_EQ(sw.runSlot(1).size(), 1u);
    EXPECT_EQ(sw.bufferedCells(), 0);
}

TEST(VirtualClockFaultTest, DeadInputDropsAndCounts)
{
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::VirtualClock});
    sw.setInputPortLive(0, false);
    EXPECT_FALSE(sw.inputPortLive(0));
    sw.acceptCell(vbrCell(0, 1));
    EXPECT_EQ(sw.droppedCells(), 1);
    EXPECT_EQ(sw.invariants().dropped(), 1);
    EXPECT_EQ(sw.bufferedCells(), 0);
    // The live inputs still reach the same output.
    sw.acceptCell(vbrCell(2, 1, 1, 0));
    const std::vector<Cell>& departed = sw.runSlot(0);
    ASSERT_EQ(departed.size(), 1u);
    EXPECT_EQ(departed[0].input, 2);
}

TEST(VirtualClockFaultTest, DeadOutputHoldsQueueUntilRevival)
{
    InputQueuedSwitch sw({.n = 4, .service = ServiceDiscipline::VirtualClock});
    sw.acceptCell(vbrCell(0, 2, 0, 0));
    sw.acceptCell(vbrCell(1, 3, 1, 0));
    sw.setOutputPortLive(2, false);
    EXPECT_FALSE(sw.outputPortLive(2));
    sw.acceptCell(vbrCell(1, 2, 1, 1));  // dropped: dead output
    EXPECT_EQ(sw.droppedCells(), 1);
    // Output 3 still sends; output 2 holds its queue.
    const std::vector<Cell>& first = sw.runSlot(0);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].output, 3);
    EXPECT_EQ(sw.runSlot(1).size(), 0u);
    EXPECT_EQ(sw.bufferedCells(), 1);
    sw.setOutputPortLive(2, true);
    const std::vector<Cell>& revived = sw.runSlot(2);
    ASSERT_EQ(revived.size(), 1u);
    EXPECT_EQ(revived[0].output, 2);
    EXPECT_EQ(sw.bufferedCells(), 0);
    EXPECT_EQ(sw.invariants().departed(), 2);
}

// ---------------------------------------------------------------------------
// Simulator integration

SimResult
runFaultedSim(uint64_t traffic_seed, uint64_t fault_seed)
{
    InputQueuedSwitch sw({.n = 8}, pim(4, 11));
    UniformTraffic traffic(8, 0.8, traffic_seed);
    FaultPlan plan = FaultPlan::parse(
        "out_down(3)@500,out_up(3)@900,in_down(5)@600,in_up(5)@800,"
        "drop(0.01),corrupt(0.005)");
    FaultInjector inj(8, plan, fault_seed);
    SimConfig cfg;
    cfg.slots = 2000;
    cfg.warmup = 100;
    cfg.faults = &inj;
    return runSimulation(sw, traffic, cfg);
}

TEST(SimulatorFaultTest, AccountsAllLossesAndConserves)
{
    SimResult r = runFaultedSim(21, 22);
    EXPECT_GT(r.fault_dropped, 0);
    EXPECT_GT(r.fault_corrupted, 0);
    EXPECT_GT(r.delivered, 0);
    // runSimulation's internal conservation assert covers
    // injected == delivered + buffered + all losses; reaching here
    // means it held for the full faulted run.
}

TEST(SimulatorFaultTest, ReplaysByteIdentically)
{
    SimResult a = runFaultedSim(21, 22);
    SimResult b = runFaultedSim(21, 22);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.fault_dropped, b.fault_dropped);
    EXPECT_EQ(a.fault_corrupted, b.fault_corrupted);
    EXPECT_EQ(a.switch_dropped, b.switch_dropped);
    EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);

    SimResult c = runFaultedSim(21, 23);  // different fault seed
    EXPECT_NE(a.fault_dropped, c.fault_dropped);
}

// ---------------------------------------------------------------------------
// Invariant checker

TEST(InvariantCheckerTest, ConservationLedger)
{
    InvariantChecker chk;
    chk.noteAccepted();
    chk.noteAccepted();
    chk.noteDropped();
    chk.noteDeparted(1);
    EXPECT_NO_THROW(chk.checkConservation(1, "test"));
    EXPECT_THROW(chk.checkConservation(0, "test"), InternalError);
    // A purged cell leaves the buffers without departing.
    chk.notePurged(1);
    EXPECT_EQ(chk.purged(), 1);
    EXPECT_NO_THROW(chk.checkConservation(0, "test"));
    EXPECT_THROW(chk.checkConservation(1, "test"), InternalError);
}

TEST(InvariantCheckerTest, MatchingAvoidsDeadMasks)
{
    Matching m(4);
    m.add(0, 1);
    std::vector<uint64_t> dead_in(1, 0), dead_out(1, 0);
    EXPECT_NO_THROW(InvariantChecker::checkMatchingAvoidsDead(
        m, dead_in.data(), dead_out.data(), "test"));
    dead_out[0] = 1ull << 1;  // output 1 dead
    EXPECT_THROW(InvariantChecker::checkMatchingAvoidsDead(
                     m, dead_in.data(), dead_out.data(), "test"),
                 InternalError);
}

// ---------------------------------------------------------------------------
// Network links

TEST(NetLinkFaultTest, DownedLinkLosesInFlightAndNewCells)
{
    NetLink link(/*latency_ps=*/1000);
    link.send(vbrCell(0, 1), 0);
    link.send(vbrCell(0, 2), 10);
    EXPECT_EQ(link.inFlight(), 2);

    link.setUp(false);
    EXPECT_FALSE(link.isUp());
    EXPECT_EQ(link.inFlight(), 0);  // photons gone
    EXPECT_EQ(link.cellsLost(), 2);

    link.send(vbrCell(0, 3), 20);  // sent into the void
    EXPECT_EQ(link.cellsLost(), 3);
    EXPECT_TRUE(link.deliverUpTo(1'000'000).empty());

    link.setUp(true);
    link.send(vbrCell(0, 4), 30);
    EXPECT_EQ(link.deliverUpTo(2000).size(), 1u);
    EXPECT_EQ(link.cellsCarried(), 3);  // two lost in flight still carried
}

// ---------------------------------------------------------------------------
// CBR schedule repair

TEST(CbrRepairTest, PortDownRevokesAndPortUpRebooksAll)
{
    const int n = 4, frame = 8;
    SlepianDuguidScheduler sched(n, frame);
    AdmissionController adm(frame);
    CbrRepairEngine eng(sched, adm, n, /*ops_per_slot=*/1);

    ASSERT_TRUE(eng.book(0, 1, 2));
    ASSERT_TRUE(eng.book(2, 1, 3));
    ASSERT_TRUE(eng.book(3, 2, 1));
    EXPECT_EQ(eng.placedBookings(), 3);
    EXPECT_TRUE(eng.fullyRepaired());

    // Output 1 dies: both bookings through it are revoked immediately,
    // their admission capacity freed; the (3,2) booking is untouched.
    eng.onPortDown(/*is_input=*/false, 1, /*slot=*/100);
    EXPECT_EQ(eng.placedBookings(), 1);
    EXPECT_EQ(eng.stats().revoked, 2);
    EXPECT_EQ(adm.committed(eng.outputLink(1)), 0);
    EXPECT_TRUE(eng.fullyRepaired());  // dead-port bookings aren't owed

    // Revival: with a budget of 1 op/slot the two bookings re-place
    // over two slots; latency = 2 slots.
    eng.onPortUp(false, 1, 200);
    EXPECT_TRUE(eng.repairPending());
    eng.slotWork(200);
    EXPECT_EQ(eng.placedBookings(), 2);
    eng.slotWork(201);
    EXPECT_EQ(eng.placedBookings(), 3);
    EXPECT_FALSE(eng.repairPending());
    EXPECT_TRUE(eng.fullyRepaired());
    EXPECT_EQ(eng.stats().rebooked, 2);
    EXPECT_EQ(eng.stats().last_repair_latency, 2);
    EXPECT_EQ(eng.stats().max_repair_latency, 2);
    EXPECT_TRUE(sched.schedule().realizes(sched.reservations()));
}

TEST(CbrRepairTest, RebookFailsWhenCapacityWasTaken)
{
    const int n = 4, frame = 4;
    SlepianDuguidScheduler sched(n, frame);
    AdmissionController adm(frame);
    CbrRepairEngine eng(sched, adm, n, 4);

    ASSERT_TRUE(eng.book(0, 1, 3));
    eng.onPortDown(false, 1, 10);
    EXPECT_EQ(eng.placedBookings(), 0);

    // While output 1 is down, someone else claims most of its capacity.
    std::vector<LinkId> path{eng.inputLink(2), eng.outputLink(1)};
    ASSERT_TRUE(adm.admit(path, 2));

    eng.onPortUp(false, 1, 20);
    eng.slotWork(20);
    EXPECT_EQ(eng.placedBookings(), 0);
    EXPECT_EQ(eng.stats().rebook_failed, 1);
    EXPECT_FALSE(eng.repairPending());  // nothing feasible left
    EXPECT_TRUE(eng.fullyRepaired());   // failed bookings aren't retried

    // Capacity returns and the port cycles again: the booking re-places.
    adm.release(path, 2);
    eng.onPortDown(false, 1, 30);
    eng.onPortUp(false, 1, 40);
    eng.slotWork(40);
    EXPECT_EQ(eng.placedBookings(), 1);
    EXPECT_EQ(eng.stats().rebooked, 1);
}

TEST(CbrRepairTest, DrivenThroughInjectorMeasuresLatency)
{
    const int n = 4, frame = 8;
    SlepianDuguidScheduler sched(n, frame);
    AdmissionController adm(frame);
    CbrRepairEngine eng(sched, adm, n, 1);
    ASSERT_TRUE(eng.book(0, 1, 1));
    ASSERT_TRUE(eng.book(2, 1, 1));
    ASSERT_TRUE(eng.book(3, 1, 1));

    FaultPlan plan = FaultPlan::parse("out_down(1)@10,out_up(1)@20");
    FaultInjector inj(n, plan, 5);
    inj.addListener(&eng);
    for (SlotTime s = 0; s < 30; ++s)
        inj.beginSlot(s);

    EXPECT_EQ(eng.stats().revoked, 3);
    EXPECT_EQ(eng.stats().rebooked, 3);
    EXPECT_EQ(eng.placedBookings(), 3);
    // Revival at slot 20, budget 1/slot, 3 bookings -> done at slot 22.
    EXPECT_EQ(eng.stats().last_repair_latency, 3);
}

}  // namespace
}  // namespace an2
