// Unit tests for the network node internals: the NetLink due-time
// mirror, Controller frame pacing and padding, NetSwitch routing
// validation and rerouting (an2/network/*). The multi-node behaviours
// live in network_test.cc; these drive the nodes directly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "an2/matching/pim.h"
#include "an2/network/controller.h"
#include "an2/network/net_switch.h"

namespace an2 {
namespace {

constexpr PicoTime kSlotPs = 1000;

std::unique_ptr<Matcher>
pim(uint64_t seed)
{
    return std::make_unique<PimMatcher>(
        PimConfig{.iterations = 4, .seed = seed});
}

// -------------------------------------------------------------- NetLink

Cell
cellOfFlow(FlowId flow)
{
    Cell c;
    c.flow = flow;
    c.cls = TrafficClass::VBR;
    return c;
}

TEST(NetLinkUnitTest, WatchedSlotTracksNextDue)
{
    NetLink link(100);
    PicoTime slot = 0;
    std::vector<Cell> out;
    // Watching a link with cells already in flight reads their head.
    link.send(cellOfFlow(1), 0);
    link.watch(&slot);
    EXPECT_EQ(slot, 100);
    EXPECT_EQ(slot, link.nextDue());

    link.send(cellOfFlow(2), 50);  // into a non-empty queue: head kept
    EXPECT_EQ(slot, 100);
    link.deliverInto(120, out);  // partial: the second cell is the head
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(slot, 150);
    EXPECT_EQ(slot, link.nextDue());
    link.deliverInto(150, out);  // full: nothing left in flight
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(slot, NetLink::kNever);
    EXPECT_EQ(slot, link.nextDue());
    link.send(cellOfFlow(3), 200);  // into an empty queue: a new head
    EXPECT_EQ(slot, 300);
    EXPECT_EQ(slot, link.nextDue());
    link.deliverInto(300, out);
    EXPECT_EQ(slot, NetLink::kNever);

    // A deferred send stages the cell and leaves the slot alone; the
    // commit publishes it.
    link.setDeferred(true);
    link.send(cellOfFlow(4), 400);
    EXPECT_EQ(link.pendingCount(), 1);
    EXPECT_EQ(slot, NetLink::kNever);
    EXPECT_EQ(slot, link.nextDue());
    link.commit();
    EXPECT_EQ(slot, 500);
    EXPECT_EQ(slot, link.nextDue());
    link.send(cellOfFlow(5), 450);  // committed behind a live head
    link.commit();
    EXPECT_EQ(slot, 500);
    EXPECT_EQ(slot, link.nextDue());
    link.deliverInto(600, out);
    EXPECT_EQ(slot, NetLink::kNever);

    // Leaving deferred mode commits what is staged.
    link.send(cellOfFlow(6), 700);
    EXPECT_EQ(slot, NetLink::kNever);
    link.setDeferred(false);
    EXPECT_EQ(link.pendingCount(), 0);
    EXPECT_EQ(slot, 800);
    EXPECT_EQ(slot, link.nextDue());

    // A downed link loses its cells, and so its due time.
    link.send(cellOfFlow(7), 750);
    link.setUp(false);
    EXPECT_EQ(link.inFlight(), 0);
    EXPECT_EQ(slot, NetLink::kNever);
    EXPECT_EQ(slot, link.nextDue());
    link.setUp(true);
    link.send(cellOfFlow(8), 900);
    EXPECT_EQ(slot, 1000);
    EXPECT_EQ(slot, link.nextDue());

    // deliverEach hands the due cells over in order and leaves the slot
    // on the first cell not yet due.
    link.send(cellOfFlow(9), 950);
    link.send(cellOfFlow(10), 1000);
    std::vector<FlowId> seen;
    link.deliverEach(1050, [&](const Cell& c) { seen.push_back(c.flow); });
    EXPECT_EQ(seen, (std::vector<FlowId>{8, 9}));
    EXPECT_EQ(slot, 1100);
    EXPECT_EQ(slot, link.nextDue());
    link.deliverEach(1099, [&](const Cell&) { ADD_FAILURE(); });  // none due
    EXPECT_EQ(slot, 1100);

    // A callback that throws: the cells before it are gone, the one it
    // threw on stays in flight, and the slot still mirrors nextDue().
    link.send(cellOfFlow(11), 1010);
    link.send(cellOfFlow(12), 1020);
    seen.clear();
    EXPECT_THROW(link.deliverEach(1200,
                                  [&](const Cell& c) {
                                      if (c.flow == 11)
                                          throw UsageError("bad cell");
                                      seen.push_back(c.flow);
                                  }),
                 UsageError);
    EXPECT_EQ(seen, (std::vector<FlowId>{10}));
    EXPECT_EQ(link.inFlight(), 2);
    EXPECT_EQ(slot, 1110);
    EXPECT_EQ(slot, link.nextDue());
    link.deliverInto(1200, out);
    EXPECT_EQ(out.back().flow, 12);
    EXPECT_EQ(slot, NetLink::kNever);
    EXPECT_EQ(slot, link.nextDue());
}

TEST(NetLinkUnitTest, LinkFeedsOneNode)
{
    NetLink link(0);
    PicoTime a = 0;
    PicoTime b = 0;
    link.watch(&a);
    EXPECT_THROW(link.watch(&b), UsageError);
    EXPECT_EQ(a, NetLink::kNever);
    // The same rule through the nodes: a link wired into one switch
    // cannot feed a second switch or a controller too.
    NetLink shared(0);
    NetSwitch s0(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(11));
    NetSwitch s1(1, LocalClock(kSlotPs, 0.0), 2, 10, pim(12));
    Controller ctl(2, LocalClock(kSlotPs, 0.0), 10, 8, 1);
    s0.setInLink(0, &shared);
    EXPECT_THROW(s1.setInLink(0, &shared), UsageError);
    EXPECT_THROW(ctl.setInLink(&shared), UsageError);
}

// ----------------------------------------------------------- Controller

TEST(ControllerUnitTest, CbrPacedExactlyPerFrame)
{
    // Frame of 10 slots (8 schedulable + 2 padding); reservation of 3.
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 8, 1);
    NetLink out(0);
    ctl.setOutLink(&out);
    ctl.addCbrSource(42, 3);
    for (int tick = 0; tick < 50; ++tick)
        ctl.tick();
    // 5 full frames: 15 cells, delivered immediately (zero latency link).
    auto cells = out.deliverUpTo(kSlotPs * 1000);
    ASSERT_EQ(cells.size(), 15u);
    // Cells occupy the first 3 slots of each frame, in seq order.
    for (size_t k = 0; k < cells.size(); ++k) {
        EXPECT_EQ(cells[k].seq, static_cast<int64_t>(k));
        EXPECT_EQ(cells[k].inject_slot % 10, static_cast<SlotTime>(k % 3));
        EXPECT_EQ(cells[k].cls, TrafficClass::CBR);
    }
}

TEST(ControllerUnitTest, PaddingSlotsNeverCarryCells)
{
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 8, 2);
    NetLink out(0);
    ctl.setOutLink(&out);
    ctl.addVbrSource(7, 1.0);  // saturating datagram source
    for (int tick = 0; tick < 100; ++tick)
        ctl.tick();
    auto cells = out.deliverUpTo(kSlotPs * 1000);
    EXPECT_EQ(cells.size(), 80u);  // 8 of every 10 slots
    for (const Cell& c : cells)
        EXPECT_LT(c.inject_slot % 10, 8);
}

TEST(ControllerUnitTest, CbrOverCommitRejected)
{
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 8, 3);
    ctl.addCbrSource(1, 5);
    EXPECT_THROW(ctl.addCbrSource(2, 4), UsageError);  // 9 > 8
    EXPECT_NO_THROW(ctl.addCbrSource(3, 3));
}

TEST(ControllerUnitTest, VbrRatesSplitTheFreeSlots)
{
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 10, 4);
    NetLink out(0);
    ctl.setOutLink(&out);
    ctl.addVbrSource(1, 0.6);
    ctl.addVbrSource(2, 0.2);
    EXPECT_THROW(ctl.addVbrSource(3, 0.3), UsageError);  // sum > 1
    for (int tick = 0; tick < 20'000; ++tick)
        ctl.tick();
    auto cells = out.deliverUpTo(kSlotPs * 1'000'000);
    int64_t f1 = 0;
    int64_t f2 = 0;
    for (const Cell& c : cells)
        (c.flow == 1 ? f1 : f2)++;
    EXPECT_NEAR(static_cast<double>(f1) / 20'000, 0.6, 0.02);
    EXPECT_NEAR(static_cast<double>(f2) / 20'000, 0.2, 0.02);
}

TEST(ControllerUnitTest, SinkStatsForUnknownFlowRejected)
{
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 8, 5);
    EXPECT_THROW(ctl.deliveryStats(9), UsageError);
    EXPECT_THROW(ctl.injectedCells(9), UsageError);
    EXPECT_THROW(ctl.policedDrops(9), UsageError);
}

TEST(ControllerUnitTest, InvalidConstruction)
{
    EXPECT_THROW(Controller(0, LocalClock(kSlotPs, 0.0), 0, 1, 1),
                 UsageError);
    EXPECT_THROW(Controller(0, LocalClock(kSlotPs, 0.0), 10, 11, 1),
                 UsageError);
}

TEST(ControllerUnitTest, PortWiringValidated)
{
    Controller ctl(0, LocalClock(kSlotPs, 0.0), 10, 8, 1);
    NetLink in(0);
    NetLink out(0);
    NetLink spare(0);
    ctl.setInLink(&in);
    ctl.setOutLink(&out);
    EXPECT_THROW(ctl.setInLink(&spare), UsageError);   // already wired
    EXPECT_THROW(ctl.setOutLink(&spare), UsageError);  // already wired
}

// ------------------------------------------------------------ NetSwitch

TEST(NetSwitchUnitTest, UnroutedFlowCellRejected)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(1));
    NetLink in(0);
    NetLink out(0);
    sw.setInLink(0, &in);
    sw.setOutLink(1, &out);
    Cell c;
    c.flow = 99;  // never routed
    c.cls = TrafficClass::VBR;
    in.send(c, 0);
    EXPECT_THROW(sw.tick(), UsageError);
}

TEST(NetSwitchUnitTest, DuplicateRouteRejected)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(2));
    EXPECT_TRUE(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0));
    EXPECT_THROW(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0), UsageError);
}

TEST(NetSwitchUnitTest, CbrRouteFailsWhenScheduleFull)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(3));
    EXPECT_TRUE(sw.addRoute(1, 0, 1, TrafficClass::CBR, 10));
    EXPECT_FALSE(sw.addRoute(2, 0, 1, TrafficClass::CBR, 1));
}

TEST(NetSwitchUnitTest, ForwardsVbrBetweenLinks)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(4));
    NetLink in(0);
    NetLink out(0);
    sw.setInLink(0, &in);
    sw.setOutLink(1, &out);
    ASSERT_TRUE(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0));
    Cell c;
    c.flow = 5;
    c.cls = TrafficClass::VBR;
    c.seq = 3;
    in.send(c, 0);
    sw.tick();
    auto delivered = out.deliverUpTo(kSlotPs * 100);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].seq, 3);
    EXPECT_EQ(delivered[0].hops, 1);
    EXPECT_EQ(sw.vbrForwarded(), 1);
}

TEST(NetSwitchUnitTest, PortWiringValidated)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(5));
    NetLink link(0);
    sw.setInLink(0, &link);
    EXPECT_THROW(sw.setInLink(0, &link), UsageError);  // already wired
    EXPECT_THROW(sw.setOutLink(5, &link), UsageError);  // out of range
}

TEST(NetSwitchUnitTest, AcceptsCellSentBeforeWiring)
{
    // The cell is in flight before the switch watches the link; the
    // watch must pick up its due time, or the switch would skip it.
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 2, 10, pim(13));
    NetLink in(0);
    NetLink out(0);
    ASSERT_TRUE(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0));
    in.send(cellOfFlow(5), 0);
    sw.setInLink(0, &in);
    sw.setOutLink(1, &out);
    sw.tick();
    EXPECT_EQ(in.inFlight(), 0);
    EXPECT_EQ(out.deliverUpTo(kSlotPs * 100).size(), 1u);
    EXPECT_EQ(sw.vbrForwarded(), 1);
}

/** Expect `sw.tick()` to fail naming switch 3 and its unlinked port 1. */
void
expectUnlinkedPortError(NetSwitch& sw)
{
    try {
        sw.tick();
        ADD_FAILURE() << "a cell reached an unlinked output";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("switch 3"), std::string::npos) << what;
        EXPECT_NE(what.find("output port 1"), std::string::npos) << what;
    }
}

TEST(NetSwitchUnitTest, VbrCellToUnlinkedOutputRejected)
{
    NetSwitch sw(3, LocalClock(kSlotPs, 0.0), 2, 10, pim(6));
    NetLink in(0);
    sw.setInLink(0, &in);
    ASSERT_TRUE(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0));
    Cell c;
    c.flow = 5;
    c.cls = TrafficClass::VBR;
    in.send(c, 0);
    expectUnlinkedPortError(sw);
}

TEST(NetSwitchUnitTest, CbrCellToUnlinkedOutputRejected)
{
    NetSwitch sw(3, LocalClock(kSlotPs, 0.0), 2, 10, pim(7));
    NetLink in(0);
    sw.setInLink(0, &in);
    ASSERT_TRUE(sw.addRoute(6, 0, 1, TrafficClass::CBR, 10));
    Cell c;
    c.flow = 6;
    c.cls = TrafficClass::CBR;
    in.send(c, 0);
    expectUnlinkedPortError(sw);
}

TEST(NetSwitchUnitTest, VbrRerouteMovesQueuedCellsInFifoOrder)
{
    // Three cells of one flow arrive together; one leaves per tick. After
    // the first, the route moves to port 2: the two still queued and a
    // later arrival leave on the new link, in sequence order.
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 3, 10, pim(8));
    NetLink in(0);
    NetLink old_out(0);
    NetLink new_out(0);
    sw.setInLink(0, &in);
    sw.setOutLink(1, &old_out);
    sw.setOutLink(2, &new_out);
    ASSERT_TRUE(sw.addRoute(5, 0, 1, TrafficClass::VBR, 0));
    Cell c;
    c.flow = 5;
    c.cls = TrafficClass::VBR;
    for (c.seq = 0; c.seq < 3; ++c.seq)
        in.send(c, 0);
    sw.tick();
    sw.updateRoute(5, 2);
    in.send(c, kSlotPs);  // seq 3, after the update
    for (int t = 0; t < 4; ++t)
        sw.tick();

    auto before = old_out.deliverUpTo(kSlotPs * 100);
    ASSERT_EQ(before.size(), 1u);
    EXPECT_EQ(before[0].seq, 0);
    auto after = new_out.deliverUpTo(kSlotPs * 100);
    ASSERT_EQ(after.size(), 3u);
    for (size_t k = 0; k < after.size(); ++k)
        EXPECT_EQ(after[k].seq, static_cast<int64_t>(k + 1));
    EXPECT_EQ(sw.vbrForwarded(), 4);
}

TEST(NetSwitchUnitTest, RerouteRejectedForCbrAndMergedQueues)
{
    NetSwitch sw(0, LocalClock(kSlotPs, 0.0), 3, 10, pim(9));
    ASSERT_TRUE(sw.addRoute(1, 0, 1, TrafficClass::CBR, 2));
    EXPECT_THROW(sw.updateRoute(1, 2), UsageError);  // pinned reservation
    EXPECT_THROW(sw.updateRoute(7, 2), UsageError);  // unknown flow
    NetSwitch merged(1, LocalClock(kSlotPs, 0.0), 3, 10, pim(10), true);
    ASSERT_TRUE(merged.addRoute(2, 0, 1, TrafficClass::VBR, 0));
    EXPECT_THROW(merged.updateRoute(2, 2), UsageError);
}

}  // namespace
}  // namespace an2
