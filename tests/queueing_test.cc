// Tests for the queueing substrates: the random-access input buffer
// with per-flow FIFOs and eligible-flow lists, and the RingQueue FIFO.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "an2/base/ring.h"
#include "an2/base/rng.h"
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

// ------------------------------------------------- InputBuffer occupancy

TEST(InputBufferTest, OccupancyTracksQueuedOutputs)
{
    InputBuffer buf(70);
    for (PortId j = 0; j < 70; ++j)
        EXPECT_FALSE(buf.hasCellFor(j));

    buf.enqueue(makeCell(1, 0, 3, 0));
    buf.enqueue(makeCell(1, 0, 3, 1));
    buf.enqueue(makeCell(2, 0, 68, 2));
    EXPECT_EQ(buf.cellCountFor(3), 2);
    EXPECT_EQ(buf.cellCountFor(68), 1);
    int occupied = 0;
    for (PortId j = 0; j < 70; ++j)
        occupied += buf.hasCellFor(j) ? 1 : 0;
    EXPECT_EQ(occupied, 2);

    // An output stays occupied while any cell remains.
    buf.dequeueFor(3);
    EXPECT_TRUE(buf.hasCellFor(3));
    buf.dequeueFor(3);
    EXPECT_FALSE(buf.hasCellFor(3));
    buf.dequeueFor(68);
    EXPECT_EQ(buf.totalCells(), 0);
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
    EXPECT_FALSE(buf.hasCellFor(1));
    EXPECT_TRUE(buf.hasCellFor(3));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    EXPECT_EQ(buf.eligibleFlowsFor(3), 1);
    for (int s = 0; s < 4; ++s) {
        Cell c = buf.dequeueFor(3);
        EXPECT_EQ(c.seq, s);
        EXPECT_EQ(c.output, 3);  // retagged in place
    }
    EXPECT_EQ(buf.totalCells(), 0);
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
    // Output 2 holds flow 1 alone; moving flow 2 onto it must give the
    // two round-robin service, flow 2 taking the back seat.
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
    EXPECT_FALSE(buf.hasCellFor(2));
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
    for (int s = 0; s < 2; ++s) {
        Cell c = buf.dequeueFor(2);
        EXPECT_EQ(c.flow, 2);  // nothing of flow 1 is left
        EXPECT_EQ(c.seq, s);
    }
    EXPECT_FALSE(buf.hasCellFor(2));
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
    EXPECT_EQ(buf.totalCells(), 0);
    // A second flow can now take the output alone.
    buf.enqueue(makeCell(5, 0, 1, 0));
    EXPECT_EQ(buf.dequeueFor(1).flow, 5);
}

// ---------------------------------------- InputBuffer differential oracle

/**
 * The paper's buffer written the obvious way: a std::deque of cells per
 * queue key and, per output, a std::deque round-robin of the keys that
 * have cells. Same contract as InputBuffer, no slab, no links, no cache.
 */
class ReferenceBuffer
{
  public:
    explicit ReferenceBuffer(int n_outputs)
        : rr_(static_cast<size_t>(n_outputs))
    {
    }

    /** Output `key` is bound to, or kNoPort. */
    PortId boundOutput(FlowId key) const
    {
        auto it = queues_.find(key);
        return it == queues_.end() ? kNoPort : it->second.output;
    }

    void enqueueAs(FlowId key, const Cell& c)
    {
        Queue& q = queues_[key];
        if (q.output == kNoPort)
            q.output = c.output;
        if (q.cells.empty())
            rr_[static_cast<size_t>(c.output)].push_back(key);
        q.cells.push_back(c);
    }

    Cell dequeueFor(PortId j)
    {
        std::deque<FlowId>& rr = rr_[static_cast<size_t>(j)];
        const FlowId key = rr.front();
        rr.pop_front();
        Queue& q = queues_[key];
        Cell c = q.cells.front();
        q.cells.pop_front();
        if (!q.cells.empty())
            rr.push_back(key);
        return c;
    }

    int rebindFlow(FlowId key, PortId to)
    {
        auto it = queues_.find(key);
        if (it == queues_.end())
            return 0;
        Queue& q = it->second;
        if (q.output == kNoPort || q.output == to)
            return 0;
        const int n = static_cast<int>(q.cells.size());
        if (n == 0) {
            q.output = kNoPort;
            return 0;
        }
        leaveRoundRobin(q.output, key);
        for (Cell& c : q.cells)
            c.output = to;
        q.output = to;
        rr_[static_cast<size_t>(to)].push_back(key);
        return n;
    }

    int purgeFlow(FlowId key)
    {
        auto it = queues_.find(key);
        if (it == queues_.end() || it->second.output == kNoPort)
            return 0;
        Queue& q = it->second;
        const int n = static_cast<int>(q.cells.size());
        if (n > 0)
            leaveRoundRobin(q.output, key);
        q.cells.clear();
        q.output = kNoPort;
        return n;
    }

    int cellCountFor(PortId j) const
    {
        int n = 0;
        for (FlowId key : rr_[static_cast<size_t>(j)])
            n += static_cast<int>(queues_.at(key).cells.size());
        return n;
    }

    int eligibleFlowsFor(PortId j) const
    {
        return static_cast<int>(rr_[static_cast<size_t>(j)].size());
    }

    int totalCells() const
    {
        int n = 0;
        for (const auto& [key, q] : queues_)
            n += static_cast<int>(q.cells.size());
        return n;
    }

  private:
    struct Queue
    {
        std::deque<Cell> cells;
        PortId output = kNoPort;
    };

    void leaveRoundRobin(PortId j, FlowId key)
    {
        std::deque<FlowId>& rr = rr_[static_cast<size_t>(j)];
        rr.erase(std::find(rr.begin(), rr.end(), key));
    }

    std::map<FlowId, Queue> queues_;
    std::vector<std::deque<FlowId>> rr_;
};

TEST(InputBufferTest, MatchesNaiveReferenceUnderRandomOperations)
{
    // Per-flow keys 0..39 go through enqueue(); merge keys 100..107
    // (the Figure 9 discipline) go through enqueueAs() with cells of
    // arbitrary flows. Rebinds and purges hit bound, drained and
    // never-seen keys alike.
    constexpr int kOutputs = 9;
    constexpr int kFlows = 40;
    constexpr int kMergeKeys = 8;
    constexpr int kOps = 1500;
    for (uint64_t seed = 1; seed <= 150; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Xoshiro256 rng(seed);
        InputBuffer buf(kOutputs);
        ReferenceBuffer ref(kOutputs);
        int64_t seq = 0;
        for (int op = 0; op < kOps; ++op) {
            const uint64_t roll = rng.nextBelow(100);
            if (roll < 55) {
                const bool merged = roll >= 40;
                const FlowId key =
                    merged ? 100 + static_cast<FlowId>(
                                       rng.nextBelow(kMergeKeys))
                           : static_cast<FlowId>(rng.nextBelow(kFlows));
                PortId out = ref.boundOutput(key);
                if (out == kNoPort)
                    out = static_cast<PortId>(rng.nextBelow(kOutputs));
                const FlowId flow =
                    merged ? static_cast<FlowId>(rng.nextBelow(kFlows))
                           : key;
                Cell c = makeCell(flow, 0, out, seq++);
                if (merged)
                    buf.enqueueAs(key, c);
                else
                    buf.enqueue(c);
                ref.enqueueAs(key, c);
            } else if (roll < 92) {
                const auto j = static_cast<PortId>(rng.nextBelow(kOutputs));
                ASSERT_EQ(buf.hasCellFor(j), ref.cellCountFor(j) > 0);
                if (!buf.hasCellFor(j))
                    continue;
                const Cell got = buf.dequeueFor(j);
                const Cell want = ref.dequeueFor(j);
                ASSERT_EQ(got.flow, want.flow) << "op " << op;
                ASSERT_EQ(got.seq, want.seq) << "op " << op;
                ASSERT_EQ(got.output, want.output) << "op " << op;
            } else {
                const bool merged = rng.nextBelow(4) == 0;
                const FlowId key =
                    merged ? 100 + static_cast<FlowId>(
                                       rng.nextBelow(kMergeKeys + 1))
                           : static_cast<FlowId>(rng.nextBelow(kFlows + 4));
                if (roll < 96) {
                    const auto to =
                        static_cast<PortId>(rng.nextBelow(kOutputs));
                    ASSERT_EQ(buf.rebindFlow(key, to), ref.rebindFlow(key, to))
                        << "op " << op;
                } else {
                    ASSERT_EQ(buf.purgeFlow(key), ref.purgeFlow(key))
                        << "op " << op;
                }
            }
            ASSERT_EQ(buf.totalCells(), ref.totalCells()) << "op " << op;
            for (PortId j = 0; j < kOutputs; ++j) {
                ASSERT_EQ(buf.cellCountFor(j), ref.cellCountFor(j))
                    << "op " << op << " output " << j;
                ASSERT_EQ(buf.eligibleFlowsFor(j), ref.eligibleFlowsFor(j))
                    << "op " << op << " output " << j;
            }
        }
        // Drain: the remaining order must agree too.
        for (PortId j = 0; j < kOutputs; ++j) {
            while (ref.cellCountFor(j) > 0) {
                const Cell got = buf.dequeueFor(j);
                const Cell want = ref.dequeueFor(j);
                ASSERT_EQ(got.flow, want.flow);
                ASSERT_EQ(got.seq, want.seq);
            }
            ASSERT_FALSE(buf.hasCellFor(j));
        }
        ASSERT_EQ(buf.totalCells(), 0);
    }
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
