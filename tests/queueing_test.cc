// Tests for the queueing substrates: per-flow FIFOs, the random-access
// input buffer with eligible-flow lists, and output queues.
#include <gtest/gtest.h>

#include "an2/base/ring.h"
#include "an2/matching/wordset.h"
#include "an2/queueing/flow_queue.h"
#include "an2/queueing/output_queue.h"
#include "an2/queueing/voq.h"

namespace an2 {
namespace {

Cell
makeCell(FlowId flow, PortId input, PortId output, int64_t seq)
{
    Cell c;
    c.flow = flow;
    c.input = input;
    c.output = output;
    c.seq = seq;
    return c;
}

// ----------------------------------------------------------- FlowQueue

TEST(FlowQueueTest, FifoOrder)
{
    FlowQueue q;
    for (int s = 0; s < 5; ++s)
        q.push(makeCell(0, 0, 0, s));
    EXPECT_EQ(q.size(), 5);
    for (int s = 0; s < 5; ++s)
        EXPECT_EQ(q.pop().seq, s);
    EXPECT_TRUE(q.empty());
}

TEST(FlowQueueTest, FrontDoesNotPop)
{
    FlowQueue q;
    q.push(makeCell(0, 0, 0, 7));
    EXPECT_EQ(q.front().seq, 7);
    EXPECT_EQ(q.size(), 1);
}

TEST(FlowQueueTest, EmptyAccessPanics)
{
    FlowQueue q;
    EXPECT_THROW(q.front(), InternalError);
    EXPECT_THROW(q.pop(), InternalError);
}

// ---------------------------------------------------------- InputBuffer

TEST(InputBufferTest, CountsPerOutput)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(0, 0, 1, 0));
    buf.enqueue(makeCell(0, 0, 1, 1));
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_EQ(buf.totalCells(), 3);
    EXPECT_EQ(buf.cellCountFor(1), 2);
    EXPECT_EQ(buf.cellCountFor(2), 1);
    EXPECT_EQ(buf.cellCountFor(0), 0);
    EXPECT_TRUE(buf.hasCellFor(1));
    EXPECT_FALSE(buf.hasCellFor(3));
}

TEST(InputBufferTest, PerFlowFifoOrder)
{
    InputBuffer buf(4);
    for (int s = 0; s < 10; ++s)
        buf.enqueue(makeCell(0, 0, 2, s));
    for (int s = 0; s < 10; ++s)
        EXPECT_EQ(buf.dequeueFor(2).seq, s);
}

TEST(InputBufferTest, RoundRobinAmongFlowsOfSameOutput)
{
    // Two flows, both to output 1; service must alternate (§3.3).
    InputBuffer buf(4);
    for (int s = 0; s < 3; ++s) {
        buf.enqueue(makeCell(10, 0, 1, s));
        buf.enqueue(makeCell(20, 0, 1, s));
    }
    std::vector<FlowId> order;
    while (buf.hasCellFor(1))
        order.push_back(buf.dequeueFor(1).flow);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], 10);
    EXPECT_EQ(order[1], 20);
    EXPECT_EQ(order[2], 10);
    EXPECT_EQ(order[3], 20);
}

TEST(InputBufferTest, EligibleFlowCount)
{
    InputBuffer buf(4);
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    buf.enqueue(makeCell(1, 0, 1, 0));
    buf.enqueue(makeCell(2, 0, 1, 0));
    buf.enqueue(makeCell(1, 0, 1, 1));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 2);
}

TEST(InputBufferTest, DequeueEmptyOutputRejected)
{
    InputBuffer buf(4);
    EXPECT_THROW(buf.dequeueFor(0), UsageError);
}

TEST(InputBufferTest, DequeueSpecificFlow)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(5, 0, 3, 0));
    buf.enqueue(makeCell(6, 0, 3, 0));
    EXPECT_TRUE(buf.flowHasCell(6));
    Cell c = buf.dequeueFlow(6);
    EXPECT_EQ(c.flow, 6);
    EXPECT_FALSE(buf.flowHasCell(6));
    EXPECT_EQ(buf.cellCountFor(3), 1);
}

TEST(InputBufferTest, StaleEligibleEntryAfterDequeueFlow)
{
    // dequeueFlow leaves a stale entry in the eligible list; a later
    // dequeueFor must skip it and still find the live flow.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));  // flow 1 listed first
    buf.enqueue(makeCell(2, 0, 2, 0));
    buf.dequeueFlow(1);  // empties flow 1, entry goes stale
    ASSERT_TRUE(buf.hasCellFor(2));
    EXPECT_EQ(buf.dequeueFor(2).flow, 2);
    EXPECT_FALSE(buf.hasCellFor(2));
}

TEST(InputBufferTest, ReEnqueueAfterStaleEntryStillReachable)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    buf.dequeueFlow(1);  // stale but still listed
    buf.enqueue(makeCell(1, 0, 2, 1));  // flag prevents double listing
    EXPECT_EQ(buf.dequeueFor(2).seq, 1);
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(InputBufferTest, InvalidCellsRejected)
{
    InputBuffer buf(2);
    Cell no_flow = makeCell(kNoFlow, 0, 0, 0);
    EXPECT_THROW(buf.enqueue(no_flow), UsageError);
    Cell bad_out = makeCell(0, 0, 5, 0);
    EXPECT_THROW(buf.enqueue(bad_out), UsageError);
}

TEST(InputBufferTest, FlowCannotChangeOutput)
{
    // All cells of a flow take the same path (paper §2); a cell of an
    // existing flow claiming a different output is a routing bug.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    // The original output remains bound even after the queue drains.
    buf.dequeueFor(2);
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    EXPECT_NO_THROW(buf.enqueue(makeCell(1, 0, 2, 1)));
}

TEST(InputBufferTest, DequeueFlowWithoutCellRejected)
{
    InputBuffer buf(2);
    EXPECT_THROW(buf.dequeueFlow(3), UsageError);
}

// ---------------------------------------------------------- OutputQueue

TEST(OutputQueueTest, FifoAndOccupancy)
{
    OutputQueue q;
    for (int s = 0; s < 4; ++s)
        q.push(makeCell(0, 0, 0, s));
    q.noteOccupancy();
    EXPECT_EQ(q.size(), 4);
    EXPECT_EQ(q.maxOccupancy(), 4);
    EXPECT_EQ(q.pop().seq, 0);
    q.noteOccupancy();
    EXPECT_EQ(q.maxOccupancy(), 4);  // peak is sticky
}

TEST(OutputQueueTest, PopEmptyPanics)
{
    OutputQueue q;
    EXPECT_THROW(q.pop(), InternalError);
}

// ------------------------------------------------- InputBuffer occupancy

TEST(InputBufferTest, OccupancyMaskTracksQueuedOutputs)
{
    InputBuffer buf(70);  // two mask words
    EXPECT_EQ(buf.occupancyWords(), 2);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));

    buf.enqueue(makeCell(1, 0, 3, 0));
    buf.enqueue(makeCell(1, 0, 3, 1));
    buf.enqueue(makeCell(2, 0, 68, 2));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 68));
    EXPECT_EQ(wordset::popcountAll(buf.occupancyMask(), 2), 2);

    // The bit stays while any cell remains, clears on the last dequeue.
    buf.dequeueFor(3);
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(3);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(68);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));
}

TEST(InputBufferTest, OccupancyMaskTracksDequeueFlow)
{
    InputBuffer buf(8);
    buf.enqueue(makeCell(5, 0, 2, 0));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 2));
    buf.dequeueFlow(5);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 2));
}

// ------------------------------------------- InputBuffer rebind / purge

TEST(InputBufferTest, RebindMovesQueuedCellsInFifoOrder)
{
    InputBuffer buf(4);
    for (int s = 0; s < 4; ++s)
        buf.enqueue(makeCell(7, 0, 1, s));
    EXPECT_EQ(buf.rebindFlow(7, 3), 4);
    EXPECT_EQ(buf.totalCells(), 4);
    EXPECT_EQ(buf.cellCountFor(1), 0);
    EXPECT_EQ(buf.cellCountFor(3), 4);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 1));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    EXPECT_EQ(buf.eligibleFlowsFor(3), 1);
    for (int s = 0; s < 4; ++s) {
        Cell c = buf.dequeueFor(3);
        EXPECT_EQ(c.seq, s);
        EXPECT_EQ(c.output, 3);  // retagged in place
    }
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 1));
    // The flow stays bound to its new output.
    EXPECT_NO_THROW(buf.enqueue(makeCell(7, 0, 3, 4)));
    EXPECT_THROW(buf.enqueue(makeCell(7, 0, 1, 5)), UsageError);
}

TEST(InputBufferTest, RebindNoOpsMoveNothing)
{
    InputBuffer buf(4);
    EXPECT_EQ(buf.rebindFlow(9, 2), 0);  // no state for the flow
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_EQ(buf.rebindFlow(1, 2), 0);  // already bound there
    EXPECT_EQ(buf.cellCountFor(2), 1);
    // A drained flow moves no cells; its next enqueue binds afresh.
    buf.dequeueFor(2);
    EXPECT_EQ(buf.rebindFlow(1, 3), 0);
    EXPECT_NO_THROW(buf.enqueue(makeCell(1, 0, 0, 1)));
    EXPECT_EQ(buf.dequeueFor(0).seq, 1);
    EXPECT_THROW(buf.rebindFlow(1, 4), UsageError);  // output out of range
}

TEST(InputBufferTest, RebindOntoAnOccupiedOutputSharesRoundRobin)
{
    // Output 2 holds flow 1 alone (the single-flow fast path); moving
    // flow 2 onto it must restore round-robin service between the two.
    InputBuffer buf(4);
    for (int s = 0; s < 2; ++s) {
        buf.enqueue(makeCell(1, 0, 2, s));
        buf.enqueue(makeCell(2, 0, 3, s));
    }
    EXPECT_EQ(buf.rebindFlow(2, 2), 2);
    EXPECT_EQ(buf.cellCountFor(2), 4);
    EXPECT_EQ(buf.eligibleFlowsFor(2), 2);
    EXPECT_FALSE(buf.hasCellFor(3));
    std::vector<FlowId> order;
    while (buf.hasCellFor(2))
        order.push_back(buf.dequeueFor(2).flow);
    EXPECT_EQ(order, (std::vector<FlowId>{1, 2, 1, 2}));
}

TEST(InputBufferTest, RebindOffASharedOutputLeavesTheOtherFlow)
{
    InputBuffer buf(4);
    for (int s = 0; s < 2; ++s) {
        buf.enqueue(makeCell(1, 0, 2, s));
        buf.enqueue(makeCell(2, 0, 2, s));
    }
    EXPECT_EQ(buf.rebindFlow(1, 0), 2);
    EXPECT_EQ(buf.eligibleFlowsFor(2), 1);
    EXPECT_EQ(buf.eligibleFlowsFor(0), 1);
    EXPECT_EQ(buf.dequeueFor(2).flow, 2);
    EXPECT_EQ(buf.dequeueFor(2).flow, 2);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 2));
    EXPECT_EQ(buf.dequeueFor(0).seq, 0);
    EXPECT_EQ(buf.dequeueFor(0).seq, 1);
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(InputBufferTest, PurgeDropsOneFlowAndKeepsTheRest)
{
    InputBuffer buf(4);
    for (int s = 0; s < 3; ++s)
        buf.enqueue(makeCell(1, 0, 2, s));
    for (int s = 0; s < 2; ++s)
        buf.enqueue(makeCell(2, 0, 2, s));
    EXPECT_EQ(buf.purgeFlow(1), 3);
    EXPECT_EQ(buf.totalCells(), 2);
    EXPECT_EQ(buf.cellCountFor(2), 2);
    EXPECT_EQ(buf.eligibleFlowsFor(2), 1);
    EXPECT_FALSE(buf.flowHasCell(1));
    EXPECT_EQ(buf.dequeueFor(2).seq, 0);
    EXPECT_EQ(buf.dequeueFor(2).seq, 1);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 2));
    EXPECT_EQ(buf.purgeFlow(1), 0);  // already purged
    EXPECT_EQ(buf.purgeFlow(9), 0);  // never seen
    // A purged flow's next enqueue binds afresh.
    EXPECT_NO_THROW(buf.enqueue(makeCell(1, 0, 3, 3)));
    EXPECT_EQ(buf.dequeueFor(3).seq, 3);
}

TEST(InputBufferTest, PurgeSoleFlowClearsItsOutput)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(4, 0, 1, 0));
    buf.enqueue(makeCell(4, 0, 1, 1));
    EXPECT_EQ(buf.purgeFlow(4), 2);
    EXPECT_FALSE(buf.hasCellFor(1));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 1));
    // A second flow can now take the output alone.
    buf.enqueue(makeCell(5, 0, 1, 0));
    EXPECT_EQ(buf.dequeueFor(1).flow, 5);
}

// ------------------------------------------------------------- RingQueue

TEST(RingQueueTest, FifoOrderAcrossGrowth)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(q.at(7), 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueueTest, RotationWrapsAroundStorage)
{
    // pop_front + push_back cycles far beyond the capacity: the head
    // index must wrap without corrupting FIFO order.
    RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    for (int i = 5; i < 500; ++i) {
        EXPECT_EQ(q.front(), i - 5);
        q.pop_front();
        q.push_back(i);
    }
    EXPECT_EQ(q.size(), 5u);
    for (int i = 495; i < 500; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingQueueTest, ClearResetsWithoutShrinking)
{
    RingQueue<int> q;
    for (int i = 0; i < 20; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(42);
    EXPECT_EQ(q.front(), 42);
}

}  // namespace
}  // namespace an2
