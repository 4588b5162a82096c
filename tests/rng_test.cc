// Tests for the deterministic PRNG layer (an2/base/rng.h).
#include "an2/base/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

namespace an2 {
namespace {

TEST(Xoshiro256Test, DeterministicForSameSeed)
{
    Xoshiro256 a(42);
    Xoshiro256 b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Xoshiro256Test, DifferentSeedsDiffer)
{
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Xoshiro256Test, CloneContinuesIdentically)
{
    Xoshiro256 a(7);
    for (int i = 0; i < 13; ++i)
        a.next64();
    auto b = a.clone();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b->next64());
}

TEST(RngTest, NextBelowStaysInRange)
{
    Xoshiro256 rng(3);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowOneAlwaysZero)
{
    Xoshiro256 rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(RngTest, NextBelowRejectsZeroBound)
{
    Xoshiro256 rng(5);
    EXPECT_THROW(rng.nextBelow(0), InternalError);
}

// The plain Lemire rejection loop: the threshold is computed on every
// call. nextBelow skips the division when no rejection is possible, and
// must return the same values from the same number of draws.
uint64_t
plainNextBelow(Rng& rng, uint64_t bound)
{
    uint64_t threshold = (-bound) % bound;
    while (true) {
        __uint128_t m = static_cast<__uint128_t>(rng.next64()) * bound;
        if (static_cast<uint64_t>(m) >= threshold)
            return static_cast<uint64_t>(m >> 64);
    }
}

TEST(RngTest, NextBelowMatchesPlainRejectionLoop)
{
    const uint64_t bounds[] = {1,
                               2,
                               3,
                               7,
                               16,
                               1000,
                               (uint64_t{1} << 32) + 1,
                               (uint64_t{1} << 63) + 1,
                               UINT64_MAX};
    std::vector<std::unique_ptr<Rng>> engines;
    engines.push_back(std::make_unique<Xoshiro256>(61));
    engines.push_back(std::make_unique<WeakLcg>(61));
    for (const auto& engine : engines) {
        for (uint64_t bound : bounds) {
            auto fast = engine->clone();
            auto plain = engine->clone();
            for (int k = 0; k < 2000; ++k)
                ASSERT_EQ(fast->nextBelow(bound),
                          plainNextBelow(*plain, bound))
                    << "bound " << bound << " draw " << k;
            // Equal streams afterwards: both consumed the same draws.
            for (int k = 0; k < 4; ++k)
                ASSERT_EQ(fast->next64(), plain->next64())
                    << "bound " << bound;
        }
    }
}

TEST(RngTest, NextBelowUniformChiSquare)
{
    // Chi-square goodness of fit over 16 buckets; 99.9% critical value
    // for 15 dof is ~37.7.
    Xoshiro256 rng(11);
    constexpr int kBuckets = 16;
    constexpr int kSamples = 160000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.nextBelow(kBuckets)];
    double expected = static_cast<double>(kSamples) / kBuckets;
    double chi2 = 0.0;
    for (int c : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    EXPECT_LT(chi2, 37.7);
}

TEST(RngTest, NextInRangeInclusive)
{
    Xoshiro256 rng(17);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Xoshiro256 rng(19);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Xoshiro256 rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBernoulli(0.0));
        EXPECT_TRUE(rng.nextBernoulli(1.0));
    }
}

TEST(RngTest, BernoulliRate)
{
    Xoshiro256 rng(29);
    int hits = 0;
    constexpr int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i)
        hits += rng.nextBernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngTest, PickWeightedRespectsWeights)
{
    Xoshiro256 rng(31);
    std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    constexpr int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.pickWeighted(weights)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / static_cast<double>(kSamples), 0.6, 0.01);
}

TEST(RngTest, PickWeightedIntMatchesDoubles)
{
    Xoshiro256 rng(37);
    std::vector<int> weights = {2, 0, 8};
    std::vector<int> counts(3, 0);
    constexpr int kSamples = 50000;
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.pickWeighted(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.2, 0.015);
}

TEST(RngTest, PickWeightedRequiresPositiveTotal)
{
    Xoshiro256 rng(41);
    std::vector<double> zero = {0.0, 0.0};
    EXPECT_THROW(rng.pickWeighted(zero), UsageError);
}

TEST(RngTest, ShuffleIsPermutation)
{
    Xoshiro256 rng(43);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[static_cast<size_t>(i)] = i;
    auto sorted = v;
    rng.shuffle(v);
    EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleUniformFirstElement)
{
    Xoshiro256 rng(47);
    std::vector<int> counts(4, 0);
    for (int trial = 0; trial < 40000; ++trial) {
        std::vector<int> v = {0, 1, 2, 3};
        rng.shuffle(v);
        ++counts[static_cast<size_t>(v[0])];
    }
    for (int c : counts)
        EXPECT_NEAR(c / 40000.0, 0.25, 0.01);
}

TEST(WeakLcgTest, ProducesVariedOutput)
{
    WeakLcg rng(1);
    std::set<uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(rng.next64());
    EXPECT_GT(seen.size(), 50u);  // weak but not constant
}

TEST(WeakLcgTest, DeterministicAndClonable)
{
    WeakLcg a(9);
    auto b = a.clone();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next64(), b->next64());
}

TEST(SplitMix64Test, KnownSequenceProperties)
{
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
    EXPECT_EQ(s1, s2);
    EXPECT_NE(splitmix64(s1), splitmix64(s2) + 1);
}

}  // namespace
}  // namespace an2
