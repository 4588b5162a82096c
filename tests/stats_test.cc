// Tests for statistics collection (an2/base/stats.h).
#include "an2/base/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace an2 {
namespace {

TEST(RunningStatsTest, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStatsTest, MatchesDirectComputation)
{
    std::vector<double> xs = {1.0, 4.0, 4.0, 7.5, -2.0, 10.0, 3.25};
    RunningStats s;
    for (double x : xs)
        s.add(x);
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= static_cast<double>(xs.size() - 1);

    EXPECT_EQ(s.count(), static_cast<int64_t>(xs.size()));
    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
    EXPECT_EQ(s.min(), -2.0);
    EXPECT_EQ(s.max(), 10.0);
    EXPECT_NEAR(s.sum(), mean * static_cast<double>(xs.size()), 1e-9);
}

TEST(RunningStatsTest, SingleSampleVarianceZero)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.mean(), 5.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream)
{
    RunningStats a;
    RunningStats b;
    RunningStats all;
    for (int i = 0; i < 100; ++i) {
        double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides)
{
    RunningStats a;
    RunningStats empty;
    a.add(1.0);
    a.add(3.0);
    RunningStats c = a;
    c.merge(empty);
    EXPECT_EQ(c.count(), 2);
    EXPECT_NEAR(c.mean(), 2.0, 1e-12);
    RunningStats d = empty;
    d.merge(a);
    EXPECT_EQ(d.count(), 2);
    EXPECT_NEAR(d.mean(), 2.0, 1e-12);
}

TEST(LogHistogramTest, SmallValuesAreExact)
{
    // Values below two sub-bucket spans (64) land in unit-width bins: the
    // exact range [0, 32) and the first octave [32, 64), whose 32
    // sub-buckets are one slot wide. Quantiles of small delays are exact.
    LogHistogram h;
    for (int64_t v = 0; v < 64; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 64);
    EXPECT_EQ(h.max(), 63);
    for (int64_t v = 0; v < 64; ++v) {
        EXPECT_EQ(LogHistogram::binLowerBound(LogHistogram::binOf(v)), v);
        EXPECT_EQ(h.quantile(static_cast<double>(v + 1) / 64.0), v);
    }
    EXPECT_LT(LogHistogram::binLowerBound(LogHistogram::binOf(65)), 65);
}

TEST(LogHistogramTest, BinBoundsAreMonotone)
{
    int64_t prev = -1;
    for (size_t b = 0; b < LogHistogram::kBins; ++b) {
        int64_t lo = LogHistogram::binLowerBound(b);
        EXPECT_GT(lo, prev) << "bin " << b;
        // The lower bound maps back into its own bin.
        EXPECT_EQ(LogHistogram::binOf(lo), b);
        prev = lo;
    }
}

TEST(LogHistogramTest, RoundTripAtPowerOfTwoBoundaries)
{
    // Property: for every representable value v >= 0,
    // binLowerBound(binOf(v)) <= v — a histogram must never report a
    // quantile above a value it actually saw. The risky inputs are the
    // bin-edge neighborhoods, so probe 2^k - 1, 2^k, 2^k + 1 for every
    // k up to (and past) kValueBits, where values clamp into the last
    // bin.
    for (int k = 0; k <= 62; ++k) {
        for (int64_t v :
             {(int64_t{1} << k) - 1, int64_t{1} << k,
              (int64_t{1} << k) + 1}) {
            size_t bin = LogHistogram::binOf(v);
            ASSERT_LT(bin, LogHistogram::kBins) << "value " << v;
            EXPECT_LE(LogHistogram::binLowerBound(bin), v)
                << "k=" << k << " value " << v << " bin " << bin;
            // A value past the clamp threshold must land in the last
            // bin, not wrap into an arbitrary one.
            if (v >= (int64_t{1} << LogHistogram::kValueBits)) {
                EXPECT_EQ(bin, LogHistogram::kBins - 1) << "value " << v;
            }
        }
    }
    // INT64_MAX clamps into the last bin and its floor stays below it.
    const int64_t top = std::numeric_limits<int64_t>::max();
    EXPECT_EQ(LogHistogram::binOf(top), LogHistogram::kBins - 1);
    EXPECT_LE(LogHistogram::binLowerBound(LogHistogram::kBins - 1), top);
    // Negative values clamp to bin 0 by contract (lower bound 0, which
    // over-reports them — documented and acceptable for delays).
    for (int64_t v : {int64_t{-1}, int64_t{-1000},
                      std::numeric_limits<int64_t>::min()}) {
        EXPECT_EQ(LogHistogram::binOf(v), 0u) << "value " << v;
    }
    EXPECT_EQ(LogHistogram::binLowerBound(0), 0);
}

TEST(LogHistogramTest, RelativeErrorIsBounded)
{
    // Log-linear with 32 sub-buckets: the bin lower bound understates
    // the true value by at most one sub-bucket width, i.e. < 1/32.
    for (int64_t v : {33LL, 100LL, 1000LL, 54321LL, 1LL << 20, 1LL << 33}) {
        int64_t lo = LogHistogram::binLowerBound(LogHistogram::binOf(v));
        EXPECT_LE(lo, v);
        EXPECT_LT(static_cast<double>(v - lo), static_cast<double>(v) / 32.0)
            << "value " << v << " bin floor " << lo;
    }
}

TEST(LogHistogramTest, QuantilesOfKnownDistribution)
{
    LogHistogram h;
    for (int64_t v = 1; v <= 1000; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 1000);
    // Exact region: values < 32 sit in unit bins.
    EXPECT_EQ(h.quantile(0.01), 10);
    // Approximate region: quantile returns the bin's lower bound, which
    // is within 1/32 below the true order statistic.
    int64_t p50 = h.quantile(0.5);
    EXPECT_LE(p50, 500);
    EXPECT_GE(p50, 500 - 500 / 32);
    int64_t p99 = h.quantile(0.99);
    EXPECT_LE(p99, 990);
    EXPECT_GE(p99, 990 - 990 / 32);
    EXPECT_EQ(h.quantile(1.0),
              LogHistogram::binLowerBound(LogHistogram::binOf(1000)));
}

TEST(LogHistogramTest, EmptyAndEdgeBehavior)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.mean(), 0.0);
    h.add(-5);  // negative delays clamp to 0 rather than corrupting a bin
    EXPECT_EQ(h.count(), 1);
    EXPECT_EQ(h.quantile(0.5), 0);
    h.add(std::numeric_limits<int64_t>::max());  // clamps into last bin
    EXPECT_EQ(h.count(), 2);
    EXPECT_GT(h.quantile(1.0), 0);
}

TEST(LogHistogramTest, MergeAndReset)
{
    LogHistogram a;
    LogHistogram b;
    for (int64_t v = 0; v < 100; ++v)
        (v % 2 ? a : b).add(v);
    LogHistogram whole;
    for (int64_t v = 0; v < 100; ++v)
        whole.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.max(), whole.max());
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
    a.reset();
    EXPECT_EQ(a.count(), 0);
    EXPECT_EQ(a.max(), 0);
}

TEST(JainIndexTest, PerfectFairnessIsOne)
{
    EXPECT_DOUBLE_EQ(jainFairnessIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(JainIndexTest, MaximallyUnfairIsOneOverN)
{
    EXPECT_NEAR(jainFairnessIndex({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainIndexTest, EmptyAndZeroAreFair)
{
    EXPECT_DOUBLE_EQ(jainFairnessIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairnessIndex({0.0, 0.0}), 1.0);
}

TEST(JainIndexTest, KnownMixedValue)
{
    // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
    EXPECT_NEAR(jainFairnessIndex({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

}  // namespace
}  // namespace an2
