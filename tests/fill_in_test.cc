// Tests for the composite statistical+PIM scheduler
// (an2/matching/fill_in.h) — §5.2's "fill unused slots with datagram
// traffic" rule.
#include "an2/matching/fill_in.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/serial_greedy.h"
#include "an2/matching/statistical.h"
#include "an2/sim/iq_switch.h"
#include "same_matrix.h"

namespace an2 {
namespace {

std::unique_ptr<FillInMatcher>
statisticalPlusPim(const Matrix<int>& alloc, uint64_t seed)
{
    StatisticalConfig scfg;
    scfg.units = 1000;
    scfg.rounds = 2;
    scfg.seed = seed;
    PimConfig pcfg;
    pcfg.iterations = 4;
    pcfg.seed = seed + 1;
    return std::make_unique<FillInMatcher>(
        std::make_unique<StatisticalMatcher>(alloc, scfg),
        std::make_unique<PimMatcher>(pcfg));
}

TEST(FillInTest, RequiresBothSchedulers)
{
    EXPECT_THROW(FillInMatcher(nullptr, std::make_unique<PimMatcher>()),
                 UsageError);
}

TEST(FillInTest, ResultIsLegalAndConflictFree)
{
    Matrix<int> alloc(8, 8, 100);
    auto matcher = statisticalPlusPim(alloc, 5);
    Xoshiro256 rng(6);
    for (int t = 0; t < 200; ++t) {
        auto req = RequestMatrix::bernoulli(8, 0.6, rng);
        Matching m = matcher->match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        for (PortId j = 0; j < 8; ++j)
            EXPECT_LE(m.outputDegree(j), 1);
    }
}

TEST(FillInTest, FillInRestoresWorkConservation)
{
    // Fully backlogged switch: plain statistical matching wastes ~28% of
    // slots; with PIM fill-in the match is maximal, so a fully requested
    // switch moves N cells every slot.
    constexpr int kN = 8;
    Matrix<int> alloc(kN, kN, 1000 / kN);
    auto matcher = statisticalPlusPim(alloc, 7);
    RequestMatrix req(kN);
    for (PortId i = 0; i < kN; ++i)
        for (PortId j = 0; j < kN; ++j)
            req.set(i, j, 1);
    int64_t total = 0;
    constexpr int kSlots = 2000;
    for (int s = 0; s < kSlots; ++s) {
        Matching m = matcher->match(req);
        EXPECT_TRUE(m.isMaximalFor(req));
        total += m.size();
    }
    EXPECT_EQ(total, static_cast<int64_t>(kSlots) * kN);
    EXPECT_GT(matcher->fillInPairs(), 0);
    EXPECT_GT(matcher->primaryPairs(), matcher->fillInPairs());
}

TEST(FillInTest, AllocationsStillHonoredUnderFillIn)
{
    // The Figure 8 scenario with fill-in: connection (3,0)'s allocated
    // quarter is still delivered at >= the 72% statistical floor (the
    // fill-in only adds service, never subtracts).
    constexpr int kN = 4;
    Matrix<int> alloc(kN, kN, 0);
    for (PortId j = 0; j < kN; ++j)
        alloc(3, j) = 250;
    for (PortId i = 0; i < 3; ++i)
        alloc(i, 0) = 250;
    auto matcher = statisticalPlusPim(alloc, 8);
    RequestMatrix req(kN);
    for (PortId i = 0; i < 3; ++i)
        req.set(i, 0, 1);
    for (PortId j = 0; j < kN; ++j)
        req.set(3, j, 1);
    Matrix<int64_t> served(kN, kN, 0);
    constexpr int kSlots = 40'000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : matcher->match(req).pairs())
            ++served(i, j);
    double share_30 = static_cast<double>(served(3, 0)) / kSlots;
    EXPECT_GE(share_30, 0.25 * 0.70);
    // Work conservation: every output-0 slot is used by someone.
    int64_t out0 = served(0, 0) + served(1, 0) + served(2, 0) + served(3, 0);
    EXPECT_EQ(out0, kSlots);
}

TEST(FillInTest, NameAndCountersCompose)
{
    Matrix<int> alloc(4, 4, 0);
    alloc(0, 0) = 500;
    auto matcher = statisticalPlusPim(alloc, 9);
    EXPECT_NE(matcher->name().find("Statistical"), std::string::npos);
    EXPECT_NE(matcher->name().find("PIM"), std::string::npos);
    RequestMatrix req(4);
    req.set(1, 1, 1);  // no allocation: only the fill-in can serve it
    Matching m = matcher->match(req);
    EXPECT_EQ(m.outputOf(1), 1);
    EXPECT_EQ(matcher->fillInPairs(), 1);
}

TEST(FillInTest, SwitchSendsNothingFromADeadInput)
{
    // An input that dies with cells queued loses its request wires, so
    // neither scheduler grants it, nor does the fill-in's residual copy
    // of the wires show it. The cells stay buffered and drain once the
    // input revives and its wires rise again.
    constexpr int kN = 4;
    InputQueuedSwitch sw({.n = kN},
                         statisticalPlusPim(Matrix<int>(kN, kN, 250), 11));
    for (PortId j = 0; j < kN; ++j) {
        Cell c;
        c.flow = kN + j;
        c.input = 1;
        c.output = j;
        sw.acceptCell(c);
    }
    sw.setInputPortLive(1, false);
    for (SlotTime s = 0; s < 20; ++s)
        EXPECT_TRUE(sw.runSlot(s).empty()) << "slot " << s;
    EXPECT_EQ(sw.bufferedCells(), kN);
    sw.setInputPortLive(1, true);
    for (SlotTime s = 20; s < 20 + kN; ++s)
        EXPECT_EQ(sw.runSlot(s).size(), 1u) << "slot " << s;
    EXPECT_EQ(sw.bufferedCells(), 0);
}

/**
 * With nothing booked, statistical matching grants nothing and the
 * secondary sees every request. Two permutations with the same number
 * of edges alternate: a warm-starting secondary must notice that its
 * residual changed and never replay the previous slot's matching.
 */
void
expectLegalWithWarmSecondary(std::unique_ptr<Matcher> secondary)
{
    constexpr int kN = 8;
    FillInMatcher matcher(
        std::make_unique<StatisticalMatcher>(
            Matrix<int>(kN, kN, 0),
            StatisticalConfig{.units = 1000, .rounds = 2, .seed = 3}),
        std::move(secondary));
    RequestMatrix diagonal(kN);
    RequestMatrix shifted(kN);
    for (PortId i = 0; i < kN; ++i) {
        diagonal.set(i, i, 1);
        shifted.set(i, (i + 1) % kN, 1);
    }
    for (int t = 0; t < 6; ++t) {
        const RequestMatrix& req = t % 2 == 0 ? diagonal : shifted;
        Matching m = matcher.match(req);
        EXPECT_TRUE(m.isLegalFor(req)) << "call " << t;
        EXPECT_EQ(m.size(), kN) << "call " << t;
    }
    EXPECT_EQ(matcher.primaryPairs(), 0);
    EXPECT_EQ(matcher.fillInPairs(), 6 * kN);
}

TEST(FillInTest, WarmIslipSecondaryStaysLegal)
{
    expectLegalWithWarmSecondary(
        std::make_unique<IslipMatcher>(4, WarmStart::On));
}

TEST(FillInTest, WarmGreedySecondaryStaysLegal)
{
    expectLegalWithWarmSecondary(
        std::make_unique<SerialGreedyMatcher>(true, 5, WarmStart::On));
}

/** Pairs two inputs in three, in ascending order, each with a random
    requested output that still has room. */
class RandomPrimary final : public Matcher
{
  public:
    RandomPrimary(uint64_t seed, int capacity)
        : rng_(seed), capacity_(capacity)
    {
    }

    void matchInto(const RequestMatrix& req, Matching& out) override
    {
        out.reset(req.numInputs(), req.numOutputs(), capacity_);
        std::vector<PortId> open;
        for (PortId i = 0; i < req.numInputs(); ++i) {
            if (rng_.nextBelow(3) == 0)
                continue;
            open.clear();
            for (PortId j = 0; j < req.numOutputs(); ++j)
                if (req.has(i, j) && !out.isOutputSaturated(j))
                    open.push_back(j);
            if (!open.empty())
                out.add(i, open[rng_.nextBelow(open.size())]);
        }
    }

    std::string name() const override { return "RandomPrimary"; }

  private:
    Xoshiro256 rng_;
    int capacity_;
};

/** Keeps a copy of the residual it is handed and matches nothing. */
class RecordingSecondary final : public Matcher
{
  public:
    void matchInto(const RequestMatrix& req, Matching& out) override
    {
        seen = req;
        ++calls;
        out.reset(req.numInputs(), req.numOutputs());
    }

    std::string name() const override { return "Recorder"; }

    RequestMatrix seen{1};
    int calls = 0;
};

TEST(FillInTest, ResidualMatchesCopyAndClear)
{
    // The residual built in one masked word pass against the slot's
    // requests copied and then cleared row by row and column by column,
    // over random primaries (capacity 1 and 2, so a matched output may
    // stay open) and random requests with dead ports. One matcher sees
    // every shape in turn, so its scratch is resized between them.
    const std::pair<int, int> shapes[] = {{3, 5}, {16, 16}, {70, 66}};
    for (int capacity : {1, 2}) {
        auto recorder = std::make_unique<RecordingSecondary>();
        RecordingSecondary& seen = *recorder;
        FillInMatcher matcher(
            std::make_unique<RandomPrimary>(17 + capacity, capacity),
            std::move(recorder));
        Xoshiro256 rng(static_cast<uint64_t>(capacity));
        Matching out(1);
        for (auto [n_in, n_out] : shapes) {
            for (int trial = 0; trial < 40; ++trial) {
                SCOPED_TRACE(::testing::Message()
                             << "capacity " << capacity << ", " << n_in
                             << "x" << n_out << " trial " << trial);
                RequestMatrix req(n_in, n_out);
                const double p = 0.05 + 0.5 * rng.nextDouble();
                for (PortId i = 0; i < n_in; ++i)
                    for (PortId j = 0; j < n_out; ++j)
                        if (rng.nextDouble() < p)
                            req.set(i, j, true);
                // Dead ports, as the switch shows them: no wires.
                for (PortId i = 0; i < n_in; ++i)
                    if (rng.nextBelow(8) == 0)
                        req.clearRow(i);
                for (PortId j = 0; j < n_out; ++j)
                    if (rng.nextBelow(8) == 0)
                        req.clearColumn(j);

                const int calls = seen.calls;
                matcher.matchInto(req, out);
                RequestMatrix want(req);
                for (PortId i = 0; i < n_in; ++i)
                    if (out.isInputMatched(i))
                        want.clearRow(i);
                for (PortId j = 0; j < n_out; ++j)
                    if (out.isOutputSaturated(j))
                        want.clearColumn(j);
                if (want.numEdges() == 0) {
                    EXPECT_EQ(seen.calls, calls);
                    continue;
                }
                ASSERT_EQ(seen.calls, calls + 1);
                expectSameMatrix(seen.seen, want);
            }
        }
    }
}

}  // namespace
}  // namespace an2
