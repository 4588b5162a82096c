// Tests for the request matrix (an2/matching/request_matrix.h).
#include "an2/matching/request_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "same_matrix.h"

namespace an2 {
namespace {

TEST(RequestMatrixTest, StartsEmpty)
{
    RequestMatrix req(4);
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(0, 0));
}

TEST(RequestMatrixTest, SetRaisesAndDropsAWire)
{
    RequestMatrix req(4);
    req.set(1, 2, true);
    EXPECT_TRUE(req.has(1, 2));
    EXPECT_EQ(req.numEdges(), 1);
    req.set(1, 2, true);  // already raised: one wire, one edge
    EXPECT_EQ(req.numEdges(), 1);
    req.set(1, 2, false);
    EXPECT_FALSE(req.has(1, 2));
    EXPECT_EQ(req.numEdges(), 0);
    req.set(1, 2, false);  // already dropped
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RequestMatrixTest, OutOfRangeRejected)
{
    EXPECT_THROW(RequestMatrix(-1, 4), UsageError);
    EXPECT_THROW(RequestMatrix(4, 0), UsageError);
    RequestMatrix req(2);
    EXPECT_THROW(req.set(2, 0, true), InternalError);
    EXPECT_THROW(req.set(0, -1, true), InternalError);
}

TEST(RequestMatrixTest, ClearEmpties)
{
    RequestMatrix req(3);
    req.set(0, 0, true);
    req.set(2, 1, true);
    req.clear();
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_FALSE(req.has(0, 0));
    EXPECT_FALSE(req.has(2, 1));
}

TEST(RequestMatrixTest, RectangularDimensions)
{
    RequestMatrix req(2, 5);
    EXPECT_EQ(req.numInputs(), 2);
    EXPECT_EQ(req.numOutputs(), 5);
    req.set(1, 4, true);
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

    req.set(3, 68, true);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_TRUE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 1);

    // Raising a raised wire changes neither the masks nor the edges.
    req.set(3, 68, true);
    EXPECT_TRUE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_EQ(req.numEdges(), 1);

    // Dropping the wire clears the bit in both views.
    req.set(3, 68, false);
    EXPECT_FALSE(wordset::testBit(req.rowMask(3), 68));
    EXPECT_FALSE(wordset::testBit(req.colMask(68), 3));
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RequestMatrixTest, MasksMatchHasOnRandomPatterns)
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
    if (op < 40) {
        req.set(i, j, true);
    } else if (op < 70) {
        req.set(i, j, false);
    } else if (op < 75) {
        req.clearRow(i);
    } else if (op < 80) {
        req.clearColumn(j);
    } else if (op < 88) {
        // Input i dies (its row drops) or revives (some wires rise).
        if (rng.nextBelow(2) == 0)
            req.clearRow(i);
        else
            for (PortId c = 0; c < n_out; ++c)
                if (rng.nextBelow(2) == 0)
                    req.set(i, c, true);
    } else if (op < 96) {
        // Output j dies or revives likewise.
        if (rng.nextBelow(2) == 0)
            req.clearColumn(j);
        else
            for (PortId r = 0; r < n_in; ++r)
                if (rng.nextBelow(2) == 0)
                    req.set(r, j, true);
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

// A naive model of a switch's wires: one flag per queued pair and per
// port. A pair's wire is raised iff it queues a cell and both ports are
// live, the rule InputQueuedSwitch keeps.
struct NaiveWires
{
    int n_in;
    int n_out;
    std::vector<char> wire;
    std::vector<char> live_in;
    std::vector<char> live_out;

    NaiveWires(int ni, int no)
        : n_in(ni), n_out(no),
          wire(static_cast<size_t>(ni) * static_cast<size_t>(no), 0),
          live_in(static_cast<size_t>(ni), 1),
          live_out(static_cast<size_t>(no), 1)
    {
    }

    char& at(PortId i, PortId j)
    {
        return wire[static_cast<size_t>(i) * static_cast<size_t>(n_out) +
                    static_cast<size_t>(j)];
    }

    bool visible(PortId i, PortId j)
    {
        return at(i, j) != 0 && live_in[static_cast<size_t>(i)] != 0 &&
               live_out[static_cast<size_t>(j)] != 0;
    }
};

// Compares every visible pair, both masks and the edge count with the
// model; returns the visible pairs as one flag per pair.
std::vector<char>
expectMatchesModel(const RequestMatrix& req, NaiveWires& model)
{
    std::vector<char> seen;
    int edges = 0;
    for (PortId i = 0; i < model.n_in; ++i) {
        for (PortId j = 0; j < model.n_out; ++j) {
            const bool want = model.visible(i, j);
            EXPECT_EQ(req.has(i, j), want) << "(" << i << "," << j << ")";
            EXPECT_EQ(wordset::testBit(req.colMask(j), i), want);
            seen.push_back(want ? 1 : 0);
            edges += want ? 1 : 0;
        }
    }
    EXPECT_EQ(req.numEdges(), edges);
    expectRequestedOutputsMatch(req);
    return seen;
}

TEST(RequestMatrixTest, MatchesANaiveWireModelOnRandomStreams)
{
    // The matrix is driven as the switch drives it: a pair is set to the
    // model's visibility, a dying port's row or column is cleared, and a
    // reviving port's pairs are set again. Every mutation leaves exactly
    // the model's visible pairs, and the epoch moves iff the visible set
    // changed (clear() always moves it).
    const std::pair<int, int> shapes[] = {{3, 5}, {70, 66}};
    for (auto [n_in, n_out] : shapes) {
        RequestMatrix req(n_in, n_out);
        NaiveWires model(n_in, n_out);
        Xoshiro256 rng(static_cast<uint64_t>(n_in * 7 + n_out));
        std::vector<char> before = expectMatchesModel(req, model);
        for (int step = 0; step < 3'000; ++step) {
            const auto i = static_cast<PortId>(
                rng.nextBelow(static_cast<uint64_t>(n_in)));
            const auto j = static_cast<PortId>(
                rng.nextBelow(static_cast<uint64_t>(n_out)));
            const uint64_t op = rng.nextBelow(100);
            const uint64_t epoch = req.epoch();
            if (op < 70) {
                model.at(i, j) = rng.nextBelow(2) == 0 ? 1 : 0;
                req.set(i, j, model.visible(i, j));
            } else if (op < 75) {
                req.clearRow(i);
                for (PortId c = 0; c < n_out; ++c)
                    model.at(i, c) = 0;
            } else if (op < 80) {
                req.clearColumn(j);
                for (PortId r = 0; r < n_in; ++r)
                    model.at(r, j) = 0;
            } else if (op < 89) {
                const bool live = rng.nextBelow(2) == 0;
                model.live_in[static_cast<size_t>(i)] = live ? 1 : 0;
                if (!live)
                    req.clearRow(i);
                for (PortId c = 0; live && c < n_out; ++c)
                    req.set(i, c, model.visible(i, c));
            } else if (op < 99) {
                const bool live = rng.nextBelow(2) == 0;
                model.live_out[static_cast<size_t>(j)] = live ? 1 : 0;
                if (!live)
                    req.clearColumn(j);
                for (PortId r = 0; live && r < n_in; ++r)
                    req.set(r, j, model.visible(r, j));
            } else {
                req.clear();
                std::fill(model.wire.begin(), model.wire.end(), 0);
            }
            std::vector<char> after = expectMatchesModel(req, model);
            if (op < 99)
                ASSERT_EQ(req.epoch() != epoch, after != before)
                    << "step " << step << " op " << op;
            else
                ASSERT_GT(req.epoch(), epoch);
            before = std::move(after);
        }
    }
}

TEST(RequestMatrixTest, ClearRowAndColumn)
{
    RequestMatrix req(6);
    for (PortId i = 0; i < 6; ++i)
        for (PortId j = 0; j < 6; ++j)
            req.set(i, j, true);
    EXPECT_EQ(req.numEdges(), 36);

    req.clearRow(2);
    EXPECT_EQ(req.numEdges(), 30);
    for (PortId j = 0; j < 6; ++j) {
        EXPECT_FALSE(req.has(2, j));
        EXPECT_FALSE(wordset::testBit(req.colMask(j), 2));
    }

    req.clearColumn(4);
    EXPECT_EQ(req.numEdges(), 25);
    for (PortId i = 0; i < 6; ++i) {
        EXPECT_FALSE(req.has(i, 4));
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
    a.set(1, 2, true);
    a.set(4, 0, true);
    RequestMatrix b(5);
    b.set(0, 0, true);
    b = a;
    EXPECT_EQ(b.numEdges(), 2);
    EXPECT_FALSE(b.has(0, 0));
    EXPECT_TRUE(wordset::testBit(b.rowMask(1), 2));
    EXPECT_TRUE(wordset::testBit(b.colMask(0), 4));
    b.clearRow(1);  // mutating the copy leaves the original intact
    EXPECT_TRUE(a.has(1, 2));
    EXPECT_EQ(a.numEdges(), 2);
}

TEST(RequestMatrixTest, MaskedAssignMatchesCopyAndClear)
{
    // assignMasked against copy-assignment followed by clearRow and
    // clearColumn on each busy port, over random matrices and random
    // busy masks; the multi-word shape spans two words per row and two
    // per column.
    const std::pair<int, int> shapes[] = {{3, 5}, {16, 16}, {70, 66}};
    for (auto [n_in, n_out] : shapes) {
        Xoshiro256 rng(static_cast<uint64_t>(n_in * 100 + n_out));
        RequestMatrix src(n_in, n_out);
        RequestMatrix other(n_in, n_out);
        RequestMatrix masked(n_in, n_out);
        for (int trial = 0; trial < 60; ++trial) {
            for (int step = 0; step < 4 * n_in; ++step)
                mutateRandomly(src, other, rng);
            for (int step = 0; step < n_in; ++step)
                mutateRandomly(masked, other, rng);
            std::vector<uint64_t> busy_in(
                static_cast<size_t>(src.colWords()), 0);
            std::vector<uint64_t> busy_out(
                static_cast<size_t>(src.rowWords()), 0);
            const double p = rng.nextDouble() * 0.5;
            for (PortId i = 0; i < n_in; ++i)
                if (rng.nextDouble() < p)
                    wordset::setBit(busy_in.data(), i);
            for (PortId j = 0; j < n_out; ++j)
                if (rng.nextDouble() < p)
                    wordset::setBit(busy_out.data(), j);

            RequestMatrix want(src);
            wordset::forEachSet(busy_in.data(), src.colWords(),
                                [&](int i) { want.clearRow(i); });
            wordset::forEachSet(busy_out.data(), src.rowWords(),
                                [&](int j) { want.clearColumn(j); });
            const uint64_t src_epoch = src.epoch();
            const uint64_t own_epoch = masked.epoch();
            masked.assignMasked(src, busy_in.data(), busy_out.data());
            SCOPED_TRACE(::testing::Message()
                         << n_in << "x" << n_out << " trial " << trial);
            expectSameMatrix(masked, want);
            EXPECT_GT(masked.epoch(), src_epoch);
            EXPECT_GT(masked.epoch(), own_epoch);
            EXPECT_EQ(src.epoch(), src_epoch);
        }
    }
    RequestMatrix square(4);
    RequestMatrix wide(4, 8);
    const uint64_t none = 0;
    EXPECT_THROW(square.assignMasked(wide, &none, &none), UsageError);
}

TEST(RequestMatrixLiveness, DeadInputDropsItsRowAndRevivalRaisesIt)
{
    // The switch clears a dead input's row and raises its wires again
    // from its VOQs at revival; the other rows are untouched.
    RequestMatrix req(4);
    req.set(1, 2, true);
    req.set(1, 3, true);
    req.set(0, 2, true);
    EXPECT_EQ(req.numEdges(), 3);

    req.clearRow(1);  // input 1 dies
    EXPECT_FALSE(req.has(1, 2));
    EXPECT_FALSE(req.has(1, 3));
    EXPECT_TRUE(req.has(0, 2));
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_FALSE(wordset::testBit(req.rowMask(1), 2));
    EXPECT_FALSE(wordset::testBit(req.colMask(2), 1));
    EXPECT_TRUE(wordset::testBit(req.colMask(2), 0));

    req.set(1, 2, true);  // input 1 revives, both VOQs still queued
    req.set(1, 3, true);
    EXPECT_TRUE(req.has(1, 2));
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.rowMask(1), 2));
}

TEST(RequestMatrixLiveness, DeadOutputDropsItsColumnAndRevivalRaisesIt)
{
    RequestMatrix req(4);
    req.set(0, 1, true);
    req.set(2, 1, true);
    req.set(2, 3, true);

    req.clearColumn(1);  // output 1 dies
    EXPECT_FALSE(req.has(0, 1));
    EXPECT_FALSE(req.has(2, 1));
    EXPECT_TRUE(req.has(2, 3));
    EXPECT_EQ(req.numEdges(), 1);
    EXPECT_FALSE(wordset::testBit(req.rowMask(0), 1));
    EXPECT_FALSE(wordset::testBit(req.rowMask(2), 1));

    req.set(0, 1, true);  // output 1 revives
    req.set(2, 1, true);
    EXPECT_EQ(req.numEdges(), 3);
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 0));
    EXPECT_TRUE(wordset::testBit(req.colMask(1), 2));
}

TEST(RequestMatrixLiveness, DeathAndRevivalAreIdempotent)
{
    RequestMatrix req(3);
    req.set(0, 0, true);
    req.clearRow(0);  // input 0 dies
    const uint64_t e = req.epoch();
    req.clearRow(0);  // idempotent
    EXPECT_EQ(req.numEdges(), 0);
    EXPECT_EQ(req.epoch(), e);

    req.clear();
    EXPECT_EQ(req.numEdges(), 0);
    req.set(1, 1, true);
    EXPECT_EQ(req.numEdges(), 1);

    req.set(0, 1, true);  // input 0 revives with a queued cell
    req.set(0, 1, true);  // idempotent
    EXPECT_EQ(req.numEdges(), 2);
}

TEST(RequestMatrixEpoch, EdgeTransitionsBumpEpoch)
{
    RequestMatrix req(6);
    const uint64_t e0 = req.epoch();

    req.set(2, 4, true);  // edge born
    EXPECT_GT(req.epoch(), e0);
    const uint64_t e1 = req.epoch();

    // Setting a wire to the state it has changes no visible edge.
    req.set(2, 4, true);
    EXPECT_EQ(req.epoch(), e1);
    req.set(3, 4, false);
    EXPECT_EQ(req.epoch(), e1);

    req.set(2, 4, false);  // edge dies
    EXPECT_GT(req.epoch(), e1);
}

TEST(RequestMatrixEpoch, ClearLinesBumpEpochOnlyWhenEdgesDie)
{
    RequestMatrix req(5);
    req.set(1, 0, true);
    req.set(1, 3, true);
    req.set(4, 3, true);

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
    req.set(2, 1, true);
    req.set(2, 3, true);
    uint64_t e = req.epoch();

    // Killing the input drops two edges.
    req.clearRow(2);
    EXPECT_GT(req.epoch(), e);

    // Revival raises the wires of its queued VOQs, including one that
    // filled while the port was dead.
    e = req.epoch();
    req.set(2, 0, true);
    req.set(2, 1, true);
    req.set(2, 3, true);
    EXPECT_GT(req.epoch(), e);

    // Same via the output side.
    e = req.epoch();
    req.clearColumn(1);
    EXPECT_GT(req.epoch(), e);
    e = req.epoch();
    req.set(2, 1, true);
    EXPECT_GT(req.epoch(), e);
}

TEST(RequestMatrixEpoch, CopyBumpsEpochPastBothOperands)
{
    RequestMatrix a(4);
    a.set(0, 0, true);
    RequestMatrix b(4);
    b.set(3, 3, true);
    // Drive both epochs forward so max() matters.
    for (int k = 0; k < 5; ++k) {
        b.set(1, 1, true);
        b.set(1, 1, false);
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

}  // namespace
}  // namespace an2
