// Tests for the request matrix (an2/matching/request_matrix.h).
#include "an2/matching/request_matrix.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace an2 {
namespace {

TEST(RequestMatrixTest, StartsEmpty)
{
    RequestMatrix req(4);
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_EQ(req.totalCells(), 0);
    EXPECT_FALSE(req.has(0, 0));
}

TEST(RequestMatrixTest, SetIncrementDecrement)
{
    RequestMatrix req(4);
    req.set(1, 2, 3);
    EXPECT_TRUE(req.has(1, 2));
    EXPECT_EQ(req.count(1, 2), 3);
    req.increment(1, 2);
    EXPECT_EQ(req.count(1, 2), 4);
    req.decrement(1, 2);
    EXPECT_EQ(req.count(1, 2), 3);
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_EQ(req.totalCells(), 3);
}

TEST(RequestMatrixTest, DecrementEmptyPanics)
{
    RequestMatrix req(2);
    EXPECT_THROW(req.decrement(0, 0), InternalError);
}

TEST(RequestMatrixTest, NegativeCountRejected)
{
    RequestMatrix req(2);
    EXPECT_THROW(req.set(0, 0, -1), UsageError);
}

TEST(RequestMatrixTest, ClearEmpties)
{
    RequestMatrix req(3);
    req.set(0, 0, 2);
    req.set(2, 1, 1);
    req.clear();
    EXPECT_EQ(req.totalCells(), 0);
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RequestMatrixTest, RectangularDimensions)
{
    RequestMatrix req(2, 5);
    EXPECT_EQ(req.numInputs(), 2);
    EXPECT_EQ(req.numOutputs(), 5);
    req.set(1, 4, 1);
    EXPECT_TRUE(req.has(1, 4));
}

TEST(RequestMatrixTest, BernoulliDensityMatchesP)
{
    Xoshiro256 rng(1);
    int edges = 0;
    constexpr int kTrials = 200;
    constexpr int kN = 16;
    for (int t = 0; t < kTrials; ++t) {
        auto req = RequestMatrix::bernoulli(kN, 0.25, rng);
        edges += req.numEdges();
    }
    double density =
        static_cast<double>(edges) / (kTrials * kN * kN);
    EXPECT_NEAR(density, 0.25, 0.01);
}

TEST(RequestMatrixTest, BernoulliExtremes)
{
    Xoshiro256 rng(2);
    EXPECT_EQ(RequestMatrix::bernoulli(8, 0.0, rng).numEdges(), 0);
    EXPECT_EQ(RequestMatrix::bernoulli(8, 1.0, rng).numEdges(), 64);
}

TEST(RequestMatrixTest, MasksTrackMutationsIncrementally)
{
    RequestMatrix req(70);  // two words per row and column
    EXPECT_EQ(req.rowWords(), 2);
    EXPECT_EQ(req.colWords(), 2);
    EXPECT_EQ(req.numEdges(), 0);

    req.set(3, 68, 2);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_TRUE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 1);

    // Count changes that stay positive do not change the masks or edges.
    req.increment(3, 68);
    EXPECT_EQ(req.count(3, 68), 3);
    EXPECT_EQ(req.numEdges(), 1);
    req.decrement(3, 68);
    req.decrement(3, 68);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_EQ(req.numEdges(), 1);

    // The last cell clears the bit in both views.
    req.decrement(3, 68);
    EXPECT_FALSE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_FALSE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RequestMatrixTest, MasksMatchCountsOnRandomPatterns)
{
    Xoshiro256 rng(9);
    for (int n : {5, 64, 100}) {
        auto req = RequestMatrix::bernoulli(n, 0.3, rng);
        int edges = 0;
        for (PortId i = 0; i < n; ++i) {
            for (PortId j = 0; j < n; ++j) {
                EXPECT_EQ(wordset::testBit(req.rowMask(i), j),
                          req.has(i, j));
                EXPECT_EQ(wordset::testBit(req.colMask(j), i),
                          req.has(i, j));
                if (req.has(i, j))
                    ++edges;
            }
        }
        EXPECT_EQ(req.numEdges(), edges);
    }
}

// Recomputes the requested outputs from the column masks and compares
// them with the set the matrix keeps.
void
expectRequestedOutputsMatch(const RequestMatrix& req)
{
    std::vector<uint64_t> want(static_cast<size_t>(req.rowWords()), 0);
    for (PortId j = 0; j < req.numOutputs(); ++j)
        if (wordset::anySet(req.colMask(j), req.colWords()))
            wordset::setBit(want.data(), j);
    for (int w = 0; w < req.rowWords(); ++w)
        ASSERT_EQ(req.requestedOutputs()[w], want[static_cast<size_t>(w)])
            << "word " << w;
}

// One random mutation of `req`; `other` is the source of copies.
void
mutateRandomly(RequestMatrix& req, const RequestMatrix& other, Rng& rng)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    const auto i = static_cast<PortId>(
        rng.nextBelow(static_cast<uint64_t>(n_in)));
    const auto j = static_cast<PortId>(
        rng.nextBelow(static_cast<uint64_t>(n_out)));
    const uint64_t op = rng.nextBelow(100);
    if (op < 30) {
        req.increment(i, j);
    } else if (op < 55) {
        if (req.count(i, j) > 0)
            req.decrement(i, j);
    } else if (op < 70) {
        req.set(i, j, static_cast<int>(rng.nextBelow(3)));
    } else if (op < 75) {
        req.clearRow(i);
    } else if (op < 80) {
        req.clearColumn(j);
    } else if (op < 88) {
        req.setInputLive(i, rng.nextBelow(2) == 0);
    } else if (op < 96) {
        req.setOutputLive(j, rng.nextBelow(2) == 0);
    } else if (op < 97) {
        req.clear();
    } else if (op < 99) {
        req = other;
    } else {
        RequestMatrix copy(other);
        expectRequestedOutputsMatch(copy);
        req = std::move(copy);
    }
}

TEST(RequestMatrixTest, RequestedOutputsTrackRandomStreams)
{
    // The last shape spans several words per row and per column.
    const std::pair<int, int> shapes[] = {{3, 5}, {16, 16}, {70, 130}};
    for (auto [n_in, n_out] : shapes) {
        RequestMatrix a(n_in, n_out);
        RequestMatrix b(n_in, n_out);
        Xoshiro256 rng(static_cast<uint64_t>(n_in * 1000 + n_out));
        for (int step = 0; step < 20'000; ++step) {
            mutateRandomly(a, b, rng);
            mutateRandomly(b, a, rng);
            expectRequestedOutputsMatch(a);
            expectRequestedOutputsMatch(b);
        }
    }
}

TEST(RequestMatrixTest, ClearRowAndColumn)
{
    RequestMatrix req(6);
    for (PortId i = 0; i < 6; ++i)
        for (PortId j = 0; j < 6; ++j)
            req.set(i, j, 1 + static_cast<int>(i));
    EXPECT_EQ(req.numEdges(), 36);

    req.clearRow(2);
    EXPECT_EQ(req.numEdges(), 30);
    for (PortId j = 0; j < 6; ++j) {
        EXPECT_EQ(req.count(2, j), 0);
        EXPECT_FALSE(wordset::testBit(req.colMask(j), 2));
    }

    req.clearColumn(4);
    EXPECT_EQ(req.numEdges(), 25);
    for (PortId i = 0; i < 6; ++i) {
        EXPECT_EQ(req.count(i, 4), 0);
        EXPECT_FALSE(wordset::testBit(req.rowMask(i), 4));
    }
    // Clearing an already-clear line is a no-op.
    req.clearRow(2);
    req.clearColumn(4);
    EXPECT_EQ(req.numEdges(), 25);
}

TEST(RequestMatrixTest, CopyAssignPreservesMaskView)
{
    RequestMatrix a(5);
    a.set(1, 2, 3);
    a.set(4, 0, 1);
    RequestMatrix b(5);
    b.set(0, 0, 9);
    b = a;
    EXPECT_EQ(b.numEdges(), 2);
    EXPECT_FALSE(b.has(0, 0));
    EXPECT_TRUE(wordset::testBit(b.rowMask(1), 2));
    EXPECT_TRUE(wordset::testBit(b.colMask(0), 4));
    b.clearRow(1);  // mutating the copy leaves the original intact
    EXPECT_TRUE(a.has(1, 2));
    EXPECT_EQ(a.numEdges(), 2);
}

TEST(RequestMatrixLiveness, DeadPortHidesWithoutDiscarding)
{
    RequestMatrix req(4);
    req.set(1, 2, 3);
    req.set(1, 3, 1);
    req.set(0, 2, 2);
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(req.allPortsLive());

    req.setInputLive(1, false);
    EXPECT_FALSE(req.inputLive(1));
    EXPECT_FALSE(req.allPortsLive());
    EXPECT_FALSE(req.has(1, 2));
    EXPECT_FALSE(req.has(1, 3));
    EXPECT_TRUE(req.has(0, 2));
    EXPECT_EQ(req.numEdges(), 1);
    // Counts survive underneath the mask.
    EXPECT_EQ(req.count(1, 2), 3);
    EXPECT_FALSE(wordset::testBit(req.rowMask(1), 2));
    EXPECT_FALSE(wordset::testBit(req.colMask(2), 1));
    EXPECT_TRUE(wordset::testBit(req.colMask(2), 0));

    req.setInputLive(1, true);
    EXPECT_TRUE(req.allPortsLive());
    EXPECT_TRUE(req.has(1, 2));
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.rowMask(1), 2));
}

TEST(RequestMatrixLiveness, DeadOutputHidesColumn)
{
    RequestMatrix req(4);
    req.set(0, 1, 1);
    req.set(2, 1, 1);
    req.set(2, 3, 1);

    req.setOutputLive(1, false);
    EXPECT_FALSE(req.outputLive(1));
    EXPECT_FALSE(req.has(0, 1));
    EXPECT_FALSE(req.has(2, 1));
    EXPECT_TRUE(req.has(2, 3));
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_FALSE(wordset::testBit(req.rowMask(0), 1));
    EXPECT_FALSE(wordset::testBit(req.rowMask(2), 1));

    req.setOutputLive(1, true);
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 0));
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 2));
}

TEST(RequestMatrixLiveness, MutationsWhileDeadStayHidden)
{
    // set/increment/decrement on a dead row must keep the edge hidden
    // and re-expose whatever count survives at revival.
    RequestMatrix req(4);
    req.set(2, 0, 2);
    req.setInputLive(2, false);

    req.increment(2, 1);     // new edge born hidden
    req.decrement(2, 0);     // 2 -> 1, still hidden
    req.set(2, 3, 5);
    req.set(2, 3, 0);        // born and killed while dead
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(2, 0));
    EXPECT_FALSE(req.has(2, 1));

    req.setInputLive(2, true);
    EXPECT_EQ(req.numEdges(), 2);
    EXPECT_TRUE(req.has(2, 0));
    EXPECT_EQ(req.count(2, 0), 1);
    EXPECT_TRUE(req.has(2, 1));
    EXPECT_FALSE(req.has(2, 3));
}

TEST(RequestMatrixLiveness, IdempotentAndSurvivesClear)
{
    RequestMatrix req(3);
    req.set(0, 0, 1);
    req.setInputLive(0, false);
    req.setInputLive(0, false);  // idempotent
    EXPECT_EQ(req.numEdges(), 0);

    req.clear();
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.inputLive(0));  // liveness survives clear()
    req.set(0, 1, 1);
    req.set(1, 1, 1);
    EXPECT_EQ(req.numEdges(), 1);  // dead input's new request hidden

    req.setInputLive(0, true);
    req.setInputLive(0, true);  // idempotent
    EXPECT_EQ(req.numEdges(), 2);
}

TEST(RequestMatrixEpoch, EdgeTransitionsBumpEpoch)
{
    RequestMatrix req(6);
    const uint64_t e0 = req.epoch();

    req.set(2, 4, 1);  // edge born
    EXPECT_GT(req.epoch(), e0);
    const uint64_t e1 = req.epoch();

    // A count change that does not cross zero changes no visible edge.
    req.increment(2, 4);
    EXPECT_EQ(req.epoch(), e1);

    req.decrement(2, 4);  // 2 -> 1, still present
    EXPECT_EQ(req.epoch(), e1);
    req.decrement(2, 4);  // edge dies
    EXPECT_GT(req.epoch(), e1);
}

TEST(RequestMatrixEpoch, ClearLinesBumpEpochOnlyWhenEdgesDie)
{
    RequestMatrix req(5);
    req.set(1, 0, 1);
    req.set(1, 3, 2);
    req.set(4, 3, 1);

    uint64_t e = req.epoch();
    req.clearRow(1);
    EXPECT_GT(req.epoch(), e);

    e = req.epoch();
    req.clearColumn(3);
    EXPECT_GT(req.epoch(), e);

    // Clearing empty lines changes nothing.
    e = req.epoch();
    req.clearRow(1);
    req.clearColumn(3);
    EXPECT_EQ(req.epoch(), e);
}

TEST(RequestMatrixEpoch, LivenessFlipsBumpEpoch)
{
    RequestMatrix req(4);
    req.set(2, 1, 1);
    req.set(2, 3, 2);
    uint64_t e = req.epoch();

    // Killing the input hides two visible edges.
    req.setInputLive(2, false);
    EXPECT_GT(req.epoch(), e);

    // Mutations while dead stay invisible.
    e = req.epoch();
    req.increment(2, 0);  // born hidden
    EXPECT_EQ(req.epoch(), e);

    // Revival re-exposes the surviving requests, including the one that
    // appeared while the port was dead.
    req.setInputLive(2, true);
    EXPECT_GT(req.epoch(), e);

    // Same via the output side.
    e = req.epoch();
    req.setOutputLive(1, false);
    EXPECT_GT(req.epoch(), e);
    e = req.epoch();
    req.setOutputLive(1, true);
    EXPECT_GT(req.epoch(), e);
}

TEST(RequestMatrixEpoch, CopyBumpsEpochPastBothOperands)
{
    RequestMatrix a(4);
    a.set(0, 0, 1);
    RequestMatrix b(4);
    b.set(3, 3, 1);
    // Drive both epochs forward so max() matters.
    for (int k = 0; k < 5; ++k) {
        b.set(1, 1, 1);
        b.set(1, 1, 0);
    }
    const uint64_t ea = a.epoch();
    const uint64_t eb = b.epoch();

    b = a;
    // Epoch strictly past both operands: a warm consumer remembering
    // either epoch can never mistake the copy for an unchanged matrix.
    EXPECT_GT(b.epoch(), ea);
    EXPECT_GT(b.epoch(), eb);

    RequestMatrix c(a);  // copy-construction likewise
    EXPECT_GT(c.epoch(), a.epoch());
}

TEST(RequestMatrixLiveness, ClearLinesOnMaskedMatrix)
{
    RequestMatrix req(4);
    for (PortId i = 0; i < 4; ++i)
        for (PortId j = 0; j < 4; ++j)
            req.set(i, j, 1);
    req.setInputLive(1, false);
    EXPECT_EQ(req.numEdges(), 12);

    req.clearRow(1);  // clearing a dead row zeroes the hidden counts
    EXPECT_EQ(req.count(1, 0), 0);
    EXPECT_EQ(req.numEdges(), 12);
    req.setInputLive(1, true);  // nothing left to re-expose
    EXPECT_EQ(req.numEdges(), 12);

    req.setOutputLive(2, false);
    EXPECT_EQ(req.numEdges(), 9);
    req.clearColumn(2);
    req.setOutputLive(2, true);
    EXPECT_EQ(req.numEdges(), 9);
}

}  // namespace
}  // namespace an2
