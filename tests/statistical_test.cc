// Tests for statistical matching (an2/matching/statistical.h) and the
// Appendix C throughput fractions.
#include "an2/matching/statistical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace an2 {
namespace {

Matrix<int>
uniformAllocation(int n, int units_per_pair)
{
    return Matrix<int>(n, n, units_per_pair);
}

TEST(StatisticalFractionsTest, ApproachTheoreticalLimits)
{
    // (1 - 1/e) ~ 0.632, (1 - 1/e)(1 + 1/e^2) ~ 0.718 for large X.
    EXPECT_NEAR(statisticalOneRoundFraction(100000), 1.0 - 1.0 / M_E, 1e-4);
    EXPECT_NEAR(statisticalTwoRoundFraction(100000),
                (1.0 - 1.0 / M_E) * (1.0 + 1.0 / (M_E * M_E)), 1e-4);
}

TEST(StatisticalFractionsTest, OneRoundBelowTwoRounds)
{
    for (int units : {10, 100, 1000}) {
        EXPECT_LT(statisticalOneRoundFraction(units),
                  statisticalTwoRoundFraction(units));
    }
}

TEST(StatisticalMatcherTest, RejectsOverAllocation)
{
    Matrix<int> alloc(2, 2, 0);
    alloc(0, 0) = 80;
    alloc(0, 1) = 30;  // row 0 sums to 110 > 100
    StatisticalConfig cfg;
    cfg.units = 100;
    EXPECT_THROW(StatisticalMatcher(alloc, cfg), UsageError);
}

TEST(StatisticalMatcherTest, RejectsBadConfig)
{
    Matrix<int> alloc(2, 2, 10);
    StatisticalConfig cfg;
    cfg.units = 1;
    EXPECT_THROW(StatisticalMatcher(alloc, cfg), UsageError);
    cfg.units = 100;
    cfg.rounds = 3;
    EXPECT_THROW(StatisticalMatcher(alloc, cfg), UsageError);
}

TEST(StatisticalMatcherTest, ZeroAllocationNeverMatches)
{
    Matrix<int> alloc(4, 4, 0);
    alloc(0, 0) = 50;
    StatisticalConfig cfg;
    cfg.units = 100;
    cfg.rounds = 2;
    StatisticalMatcher sm(alloc, cfg);
    for (int t = 0; t < 500; ++t) {
        Matching m = sm.matchAllocated();
        for (auto [i, j] : m.pairs()) {
            EXPECT_EQ(i, 0);
            EXPECT_EQ(j, 0);
        }
    }
}

TEST(StatisticalMatcherTest, MatchesAreConflictFree)
{
    StatisticalConfig cfg;
    cfg.units = 100;
    cfg.rounds = 2;
    StatisticalMatcher sm(uniformAllocation(8, 12), cfg);
    for (int t = 0; t < 300; ++t) {
        Matching m = sm.matchAllocated();
        std::vector<int> in_used(8, 0);
        std::vector<int> out_used(8, 0);
        for (auto [i, j] : m.pairs()) {
            ++in_used[static_cast<size_t>(i)];
            ++out_used[static_cast<size_t>(j)];
        }
        for (int u : in_used)
            EXPECT_LE(u, 1);
        for (int u : out_used)
            EXPECT_LE(u, 1);
    }
}

TEST(StatisticalMatcherTest, OneRoundDeliversExpectedFraction)
{
    // Full allocation: every pair of an 4x4 switch gets X/4 units. Each
    // connection should be matched in ~ (X_ij/X)(1 - 1/e) of slots.
    constexpr int kN = 4;
    constexpr int kUnits = 1000;
    StatisticalConfig cfg;
    cfg.units = kUnits;
    cfg.rounds = 1;
    cfg.seed = 11;
    StatisticalMatcher sm(uniformAllocation(kN, kUnits / kN), cfg);
    Matrix<int> matched(kN, kN, 0);
    constexpr int kSlots = 60000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : sm.matchAllocated().pairs())
            ++matched(i, j);
    double expect = (1.0 / kN) * statisticalOneRoundFraction(kUnits);
    for (int i = 0; i < kN; ++i) {
        for (int j = 0; j < kN; ++j) {
            double rate = matched(i, j) / static_cast<double>(kSlots);
            EXPECT_NEAR(rate, expect, 0.012)
                << "connection " << i << "->" << j;
        }
    }
}

TEST(StatisticalMatcherTest, TwoRoundsDeliverAtLeast72Percent)
{
    constexpr int kN = 4;
    constexpr int kUnits = 1000;
    StatisticalConfig cfg;
    cfg.units = kUnits;
    cfg.rounds = 2;
    cfg.seed = 13;
    StatisticalMatcher sm(uniformAllocation(kN, kUnits / kN), cfg);
    Matrix<int> matched(kN, kN, 0);
    constexpr int kSlots = 60000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : sm.matchAllocated().pairs())
            ++matched(i, j);
    double floor_fraction = statisticalTwoRoundFraction(kUnits);
    for (int i = 0; i < kN; ++i) {
        for (int j = 0; j < kN; ++j) {
            double delivered = matched(i, j) / static_cast<double>(kSlots);
            double allocated = 1.0 / kN;
            // Appendix C proves delivered >= allocated * 0.72 (up to
            // sampling noise).
            EXPECT_GE(delivered, allocated * floor_fraction - 0.012)
                << "connection " << i << "->" << j;
        }
    }
}

TEST(StatisticalMatcherTest, ProportionalToUnevenAllocations)
{
    // Input 0 splits 90/10 between outputs 0 and 1; delivered throughput
    // must honor the ratio.
    constexpr int kUnits = 1000;
    Matrix<int> alloc(2, 2, 0);
    alloc(0, 0) = 900;
    alloc(0, 1) = 100;
    StatisticalConfig cfg;
    cfg.units = kUnits;
    cfg.rounds = 1;
    cfg.seed = 17;
    StatisticalMatcher sm(alloc, cfg);
    Matrix<int> matched(2, 2, 0);
    constexpr int kSlots = 60000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : sm.matchAllocated().pairs())
            ++matched(i, j);
    double f = statisticalOneRoundFraction(kUnits);
    EXPECT_NEAR(matched(0, 0) / static_cast<double>(kSlots), 0.9 * f, 0.012);
    EXPECT_NEAR(matched(0, 1) / static_cast<double>(kSlots), 0.1 * f, 0.012);
}

TEST(StatisticalMatcherTest, RequestFilteringDropsIdlePairs)
{
    StatisticalConfig cfg;
    cfg.units = 100;
    cfg.seed = 19;
    StatisticalMatcher sm(uniformAllocation(4, 25), cfg);
    RequestMatrix req(4);
    req.set(2, 1, 1);  // only connection with a queued cell
    for (int t = 0; t < 200; ++t) {
        Matching m = sm.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        for (auto [i, j] : m.pairs()) {
            EXPECT_EQ(i, 2);
            EXPECT_EQ(j, 1);
        }
    }
}

TEST(StatisticalMatcherTest, SetAllocationUpdatesRates)
{
    constexpr int kUnits = 1000;
    Matrix<int> alloc(2, 2, 0);
    alloc(0, 0) = 500;
    StatisticalConfig cfg;
    cfg.units = kUnits;
    cfg.rounds = 1;
    cfg.seed = 23;
    StatisticalMatcher sm(alloc, cfg);
    EXPECT_EQ(sm.allocation(0, 0), 500);
    sm.setAllocation(0, 0, 100);
    sm.setAllocation(1, 1, 800);
    EXPECT_EQ(sm.allocation(0, 0), 100);

    Matrix<int> matched(2, 2, 0);
    constexpr int kSlots = 40000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : sm.matchAllocated().pairs())
            ++matched(i, j);
    double f = statisticalOneRoundFraction(kUnits);
    EXPECT_NEAR(matched(0, 0) / static_cast<double>(kSlots), 0.1 * f, 0.012);
    EXPECT_NEAR(matched(1, 1) / static_cast<double>(kSlots), 0.8 * f, 0.012);
}

TEST(StatisticalMatcherTest, UpdatedMatcherDrawsLikeAFreshOne)
{
    // setAllocation recomputes only the tables of the pair's two ports.
    // After a random feasible sequence of updates (pairs booked, re-booked
    // and emptied), the matcher must draw exactly like one built from the
    // final allocation with the same seed.
    constexpr int kUnits = 1000;
    for (int rounds : {1, 2}) {
        for (int n : {4, 16}) {
            Xoshiro256 rng(static_cast<uint64_t>(700 + 10 * n + rounds));
            Matrix<int> alloc(n, n, 0);
            for (PortId i = 0; i < n; ++i)
                alloc(i, (i + 1) % n) = kUnits / 2;
            const StatisticalConfig cfg{.units = kUnits,
                                        .rounds = rounds,
                                        .seed = static_cast<uint64_t>(n)};
            StatisticalMatcher updated(alloc, cfg);
            for (int step = 0; step < 40 * n; ++step) {
                auto i = static_cast<PortId>(
                    rng.nextBelow(static_cast<uint64_t>(n)));
                auto j = static_cast<PortId>(
                    rng.nextBelow(static_cast<uint64_t>(n)));
                const int slack = std::min(kUnits - alloc.rowSum(i),
                                           kUnits - alloc.colSum(j)) +
                                  alloc(i, j);
                alloc(i, j) = rng.nextBelow(4) == 0
                                  ? 0
                                  : static_cast<int>(rng.nextBelow(
                                        static_cast<uint64_t>(slack) + 1));
                updated.setAllocation(i, j, alloc(i, j));
            }
            StatisticalMatcher fresh(alloc, cfg);
            for (int t = 0; t < 1000; ++t) {
                const Matching a = updated.matchAllocated();
                const Matching b = fresh.matchAllocated();
                for (PortId i = 0; i < n; ++i)
                    ASSERT_EQ(a.outputOf(i), b.outputOf(i))
                        << "rounds=" << rounds << " n=" << n << " t=" << t
                        << " input " << i;
            }
        }
    }
}

TEST(StatisticalMatcherTest, SetAllocationRejectsOverCommit)
{
    Matrix<int> alloc(2, 2, 0);
    alloc(0, 0) = 90;
    StatisticalConfig cfg;
    cfg.units = 100;
    StatisticalMatcher sm(alloc, cfg);
    EXPECT_THROW(sm.setAllocation(0, 1, 20), UsageError);
}

TEST(StatisticalMatcherTest, MismatchedRequestSizeRejected)
{
    StatisticalConfig cfg;
    cfg.units = 100;
    StatisticalMatcher sm(uniformAllocation(4, 10), cfg);
    RequestMatrix req(5);
    EXPECT_THROW(sm.match(req), UsageError);
}

TEST(StatisticalMatcherTest, GrantDistributionMatchesAllocations)
{
    // Appendix C, end to end for an asymmetric column: three inputs
    // share output 0 with different allocations; each input's measured
    // match rate must equal the closed-form per-connection probability.
    constexpr int kUnits = 100;
    Matrix<int> alloc(4, 4, 0);
    alloc(0, 0) = 50;
    alloc(1, 0) = 30;
    alloc(2, 0) = 15;  // output 0: 95/100 allocated; 5% imaginary
    StatisticalConfig cfg;
    cfg.units = kUnits;
    cfg.rounds = 1;
    cfg.seed = 31;
    StatisticalMatcher sm(alloc, cfg);
    constexpr int kSlots = 200'000;
    std::vector<int64_t> matched(4, 0);
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : sm.matchAllocated().pairs())
            ++matched[static_cast<size_t>(i)];
    // Appendix C's exact per-connection probability, valid for any
    // X[i][j]: Pr{i matches j} = (X_ij/X) * (1 - ((X-1)/X)^X). The
    // measured shares must match it connection by connection, which
    // pins down both the grant lottery and the virtual-grant tables.
    double base = 1.0 - std::pow((kUnits - 1.0) / kUnits, kUnits);
    EXPECT_NEAR(matched[0] / static_cast<double>(kSlots), 0.50 * base,
                0.01);
    EXPECT_NEAR(matched[1] / static_cast<double>(kSlots), 0.30 * base,
                0.01);
    EXPECT_NEAR(matched[2] / static_cast<double>(kSlots), 0.15 * base,
                0.01);
    EXPECT_EQ(matched[3], 0);
}

TEST(StatisticalMatcherTest, SmallUnitCountsStillRespectBudgets)
{
    // X as small as 2 must still produce conflict-free matchings and
    // never exceed allocations' relative ordering.
    Matrix<int> alloc(2, 2, 0);
    alloc(0, 0) = 2;
    alloc(1, 1) = 1;
    StatisticalConfig cfg;
    cfg.units = 2;
    cfg.rounds = 2;
    cfg.seed = 33;
    StatisticalMatcher sm(alloc, cfg);
    int64_t m00 = 0;
    int64_t m11 = 0;
    for (int s = 0; s < 20'000; ++s) {
        for (auto [i, j] : sm.matchAllocated().pairs()) {
            if (i == 0)
                ++m00;
            else
                ++m11;
        }
    }
    EXPECT_GT(m00, m11);
    EXPECT_GT(m11, 0);
}

TEST(StatisticalMatcherTest, NameEncodesConfig)
{
    StatisticalConfig cfg;
    cfg.units = 100;
    cfg.rounds = 2;
    StatisticalMatcher sm(uniformAllocation(2, 10), cfg);
    EXPECT_EQ(sm.name(), "Statistical(2-round,X=100)");
}

}  // namespace
}  // namespace an2
