// Tests for Parallel Iterative Matching (an2/matching/pim.h), including
// the Appendix A iteration-count properties.
#include "an2/matching/pim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "an2/matching/hopcroft_karp.h"
#include "scalar_matchers.h"

namespace an2 {
namespace {

TEST(PimTest, EmptyRequestsGiveEmptyMatch)
{
    PimMatcher pim;
    RequestMatrix req(8);
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), 0);
}

TEST(PimTest, SingleRequestMatchedInOneIteration)
{
    PimMatcher pim(PimConfig{.iterations = 1});
    RequestMatrix req(8);
    req.set(3, 5, 1);
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), 1);
    EXPECT_EQ(m.outputOf(3), 5);
}

TEST(PimTest, PermutationRequestsFullyMatchedInOneIteration)
{
    // Each output has exactly one requester: no contention anywhere.
    PimMatcher pim(PimConfig{.iterations = 1});
    RequestMatrix req(8);
    for (PortId i = 0; i < 8; ++i)
        req.set(i, (i + 3) % 8, 1);
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), 8);
}

TEST(PimTest, RunToCompletionIsMaximal)
{
    PimMatcher pim(PimConfig{.iterations = 0, .seed = 9});
    Xoshiro256 rng(4);
    for (int trial = 0; trial < 50; ++trial) {
        auto req = RequestMatrix::bernoulli(16, 0.4, rng);
        Matching m = pim.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        EXPECT_TRUE(m.isMaximalFor(req));
    }
}

TEST(PimTest, DeterministicForSameSeed)
{
    Xoshiro256 rng(5);
    auto req = RequestMatrix::bernoulli(16, 0.5, rng);
    PimMatcher a(PimConfig{.seed = 77});
    PimMatcher b(PimConfig{.seed = 77});
    Matching ma = a.match(req);
    Matching mb = b.match(req);
    for (PortId i = 0; i < 16; ++i)
        EXPECT_EQ(ma.outputOf(i), mb.outputOf(i));
}

TEST(PimTest, DetailedStatsMonotoneAndConsistent)
{
    Xoshiro256 rng(6);
    auto req = RequestMatrix::bernoulli(16, 1.0, rng);
    PimMatcher pim(PimConfig{.seed = 3});
    PimRunStats stats;
    Matching m = pim.matchDetailed(req, stats, 0);
    ASSERT_GT(stats.iterations_run, 0);
    ASSERT_EQ(static_cast<int>(stats.matches_after_iteration.size()),
              stats.iterations_run);
    for (size_t k = 1; k < stats.matches_after_iteration.size(); ++k)
        EXPECT_GE(stats.matches_after_iteration[k],
                  stats.matches_after_iteration[k - 1]);
    EXPECT_EQ(stats.matches_after_iteration.back(), m.size());
    EXPECT_TRUE(stats.reached_maximal);
}

TEST(PimTest, EarlyExitOncePairingsExhausted)
{
    // A single request can't need more than ~2 iterations even if 16 are
    // allowed (the second iteration adds nothing and stops the loop).
    PimMatcher pim(PimConfig{.iterations = 16});
    RequestMatrix req(4);
    req.set(0, 0, 1);
    PimRunStats stats;
    pim.matchDetailed(req, stats, 16);
    EXPECT_LE(stats.iterations_run, 2);
}

TEST(PimTest, AppendixAWorstCasePattern)
{
    // All outputs grant to inputs that all request everything: the
    // adversarial full matrix. Run to completion must still produce the
    // full (maximum) match, since the request graph is complete.
    PimMatcher pim(PimConfig{.iterations = 0, .seed = 21});
    RequestMatrix req(16);
    for (PortId i = 0; i < 16; ++i)
        for (PortId j = 0; j < 16; ++j)
            req.set(i, j, 1);
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), 16);
}

TEST(PimTest, AverageIterationsWithinAppendixABound)
{
    // Appendix A: E[iterations to maximal] <= log2(N) + 4/3. Measure the
    // empirical mean over many dense patterns and allow a small slack for
    // sampling noise (the bound itself is loose in practice).
    for (int n : {4, 8, 16, 32}) {
        PimMatcher pim(PimConfig{.iterations = 0,
                                 .seed = static_cast<uint64_t>(100 + n)});
        Xoshiro256 rng(static_cast<uint64_t>(n));
        double total_iters = 0.0;
        constexpr int kTrials = 300;
        for (int t = 0; t < kTrials; ++t) {
            auto req = RequestMatrix::bernoulli(n, 1.0, rng);
            PimRunStats stats;
            pim.matchDetailed(req, stats, 0);
            // iterations_run includes the final no-progress round; the
            // match itself completed one earlier.
            total_iters += stats.iterations_run - 1;
        }
        double avg = total_iters / kTrials;
        EXPECT_LE(avg, std::log2(n) + 4.0 / 3.0 + 0.5)
            << "N=" << n << " avg=" << avg;
    }
}

TEST(PimTest, FourIterationsNearlyAlwaysMaximalAt16)
{
    // Table 1's headline: at N=16, 4 iterations find essentially every
    // match that running to completion finds.
    PimMatcher pim(PimConfig{.iterations = 4, .seed = 8});
    Xoshiro256 rng(9);
    int maximal = 0;
    constexpr int kTrials = 500;
    for (int t = 0; t < kTrials; ++t) {
        auto req = RequestMatrix::bernoulli(16, 0.5, rng);
        Matching m = pim.match(req);
        if (m.isMaximalFor(req))
            ++maximal;
    }
    EXPECT_GE(maximal, kTrials * 97 / 100);
}

TEST(PimTest, MaximalAtLeastHalfOfMaximum)
{
    // Classic bound: any maximal matching is >= 1/2 the maximum matching.
    PimMatcher pim(PimConfig{.iterations = 0, .seed = 10});
    Xoshiro256 rng(11);
    for (int t = 0; t < 100; ++t) {
        auto req = RequestMatrix::bernoulli(12, 0.3, rng);
        int pim_size = pim.match(req).size();
        int max_size = maximumMatchingSize(req);
        EXPECT_GE(2 * pim_size, max_size);
        EXPECT_LE(pim_size, max_size);
    }
}

TEST(PimTest, NoStarvationUnderPersistentContention)
{
    // The Figure 2 scenario §3.4 uses to show maximum matching starves:
    // input 0 requests outputs 1 and 2; input 1 requests output 1 only.
    // Over many slots PIM must serve connection (0,1) sometimes and both
    // (0,*) and (1,1) regularly.
    PimMatcher pim(PimConfig{.iterations = 4, .seed = 12});
    RequestMatrix req(3);
    req.set(0, 1, 1);
    req.set(0, 2, 1);
    req.set(1, 1, 1);
    int served_01 = 0;
    int served_11 = 0;
    int served_02 = 0;
    for (int slot = 0; slot < 4000; ++slot) {
        Matching m = pim.match(req);
        if (m.outputOf(0) == 1)
            ++served_01;
        if (m.outputOf(0) == 2)
            ++served_02;
        if (m.outputOf(1) == 1)
            ++served_11;
    }
    EXPECT_GT(served_01, 100);
    EXPECT_GT(served_02, 1000);
    EXPECT_GT(served_11, 1000);
}

TEST(PimTest, RoundRobinAcceptCyclesThroughOutputs)
{
    PimConfig cfg;
    cfg.iterations = 1;
    cfg.accept = AcceptPolicy::RoundRobin;
    PimMatcher pim(cfg);
    // Input 0 is the only requester of outputs 0..3; all grant every
    // slot, so round-robin accept must visit each output equally.
    RequestMatrix req(4);
    for (PortId j = 0; j < 4; ++j)
        req.set(0, j, 1);
    std::vector<int> served(4, 0);
    for (int slot = 0; slot < 400; ++slot) {
        Matching m = pim.match(req);
        ASSERT_NE(m.outputOf(0), kNoPort);
        ++served[static_cast<size_t>(m.outputOf(0))];
    }
    for (int j = 0; j < 4; ++j)
        EXPECT_EQ(served[static_cast<size_t>(j)], 100);
}

TEST(PimTest, OutputCapacityGrantsUpToK)
{
    PimConfig cfg;
    cfg.iterations = 0;
    cfg.output_capacity = 3;
    PimMatcher pim(cfg);
    RequestMatrix req(4);
    for (PortId i = 0; i < 4; ++i)
        req.set(i, 0, 1);  // everyone wants output 0
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), 3);
    EXPECT_EQ(m.outputDegree(0), 3);
    EXPECT_TRUE(m.isMaximalFor(req));
}

// Capacity sweep: the replicated-fabric generalization must respect the
// configured grant limit and reach capacity-aware maximality for every k.
class PimCapacityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PimCapacityTest, RespectsOutputCapacityAndMaximality)
{
    int k = GetParam();
    PimConfig cfg;
    cfg.iterations = 0;
    cfg.output_capacity = k;
    cfg.seed = static_cast<uint64_t>(100 + k);
    PimMatcher pim(cfg);
    Xoshiro256 rng(static_cast<uint64_t>(50 + k));
    for (int t = 0; t < 40; ++t) {
        auto req = RequestMatrix::bernoulli(12, 0.6, rng);
        Matching m = pim.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        EXPECT_TRUE(m.isMaximalFor(req));
        for (PortId j = 0; j < 12; ++j)
            EXPECT_LE(m.outputDegree(j), k);
        // Each input still transmits at most once.
        for (PortId i = 0; i < 12; ++i)
            EXPECT_LE(m.outputOf(i) == kNoPort ? 0 : 1, 1);
    }
}

TEST_P(PimCapacityTest, HotColumnAbsorbsUpToK)
{
    int k = GetParam();
    PimConfig cfg;
    cfg.iterations = 0;
    cfg.output_capacity = k;
    cfg.seed = static_cast<uint64_t>(200 + k);
    PimMatcher pim(cfg);
    RequestMatrix req(8);
    for (PortId i = 0; i < 8; ++i)
        req.set(i, 0, 1);
    Matching m = pim.match(req);
    EXPECT_EQ(m.size(), std::min(8, k));
    EXPECT_EQ(m.outputDegree(0), std::min(8, k));
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, PimCapacityTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(PimTest, WeakPrngStillFindsMaximalMatches)
{
    // §3.3: completion is "relatively insensitive to the technique used
    // to approximate randomness".
    PimMatcher pim(PimConfig{.iterations = 0},
                   std::make_unique<WeakLcg>(123));
    Xoshiro256 rng(13);
    for (int t = 0; t < 50; ++t) {
        auto req = RequestMatrix::bernoulli(16, 0.5, rng);
        Matching m = pim.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        EXPECT_TRUE(m.isMaximalFor(req));
    }
}

TEST(PimTest, SizeChangeWithoutResetFails)
{
    PimConfig cfg;
    cfg.accept = AcceptPolicy::RoundRobin;
    PimMatcher pim(cfg);
    RequestMatrix small(4);
    pim.match(small);
    RequestMatrix big(8);
    EXPECT_THROW(pim.match(big), UsageError);
    pim.reset();
    EXPECT_NO_THROW(pim.match(big));
}

TEST(PimTest, OutputCountChangeWithoutResetFails)
{
    // The round-robin accept pointers range over the outputs, so fewer
    // outputs with the same inputs is the same misuse as above, for the
    // library matcher and its scalar oracle alike.
    PimConfig cfg;
    cfg.accept = AcceptPolicy::RoundRobin;
    PimMatcher library(cfg);
    ScalarPimMatcher oracle(cfg);
    for (Matcher* pim : {static_cast<Matcher*>(&library),
                         static_cast<Matcher*>(&oracle)}) {
        RequestMatrix wide(4, 8);
        wide.set(0, 6, 1);  // input 0's pointer moves to output 7
        EXPECT_EQ(pim->match(wide).outputOf(0), 6);
        RequestMatrix square(4);
        square.set(0, 0, 1);
        EXPECT_THROW(pim->match(square), UsageError);
        pim->reset();
        EXPECT_EQ(pim->match(square).outputOf(0), 0);
    }
}

TEST(PimTest, InvalidConfigRejected)
{
    EXPECT_THROW(PimMatcher(PimConfig{.iterations = -1}), UsageError);
    PimConfig cfg;
    cfg.output_capacity = 0;
    EXPECT_THROW(PimMatcher{cfg}, UsageError);
}

TEST(PimTest, NameReflectsConfig)
{
    EXPECT_EQ(PimMatcher(PimConfig{.iterations = 4}).name(), "PIM(4)");
    EXPECT_EQ(PimMatcher(PimConfig{.iterations = 0}).name(),
              "PIM(complete)");
}

// ------------------------------------------------------------------
// Property sweep: legality + output-uniqueness for every combination of
// size, density, iteration count, accept policy, and seed.
// ------------------------------------------------------------------

using PimSweepParam = std::tuple<int, double, int, AcceptPolicy, uint64_t>;

class PimSweepTest : public ::testing::TestWithParam<PimSweepParam>
{
};

TEST_P(PimSweepTest, ProducesLegalMatchings)
{
    auto [n, p, iterations, accept, seed] = GetParam();
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.accept = accept;
    cfg.seed = seed;
    PimMatcher pim(cfg);
    Xoshiro256 rng(seed ^ 0xabcdef);
    for (int trial = 0; trial < 20; ++trial) {
        auto req = RequestMatrix::bernoulli(n, p, rng);
        Matching m = pim.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        if (iterations == 0) {
            EXPECT_TRUE(m.isMaximalFor(req));
        }
        // Each output matched at most once (capacity 1).
        for (PortId j = 0; j < n; ++j)
            EXPECT_LE(m.outputDegree(j), 1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PimSweepTest,
    ::testing::Combine(::testing::Values(2, 4, 16, 32),
                       ::testing::Values(0.1, 0.5, 1.0),
                       ::testing::Values(1, 4, 0),
                       ::testing::Values(AcceptPolicy::Random,
                                         AcceptPolicy::RoundRobin),
                       ::testing::Values(1ULL, 99ULL)));

}  // namespace
}  // namespace an2
