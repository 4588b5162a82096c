// Tests for the metrics collector (an2/sim/metrics.h).
#include "an2/sim/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "an2/base/rng.h"

namespace an2 {
namespace {

Cell
cellAt(FlowId flow, PortId in, PortId out, SlotTime inject)
{
    Cell c;
    c.flow = flow;
    c.input = in;
    c.output = out;
    c.inject_slot = inject;
    return c;
}

TEST(MetricsTest, WarmupCellsExcluded)
{
    MetricsCollector m(100, 4);
    Cell early = cellAt(0, 0, 1, 50);
    Cell late = cellAt(0, 0, 1, 150);
    m.noteInjected(early);
    m.noteInjected(late);
    m.noteDelivered(early, 60);
    m.noteDelivered(late, 155);
    EXPECT_EQ(m.injected(), 1);
    EXPECT_EQ(m.delivered(), 1);
    EXPECT_DOUBLE_EQ(m.meanDelay(), 5.0);
}

TEST(MetricsTest, DelayStatsAndQuantiles)
{
    MetricsCollector m(0, 4);
    for (int d = 0; d < 100; ++d) {
        Cell c = cellAt(0, 0, 0, 0);
        m.noteInjected(c);
        m.noteDelivered(c, d);
    }
    EXPECT_NEAR(m.meanDelay(), 49.5, 1e-9);
    // The 99th smallest of the delays 0..99: exact below 64 slots.
    EXPECT_EQ(m.delayQuantile(0.99), 98.0);
    EXPECT_EQ(m.delayStats().count(), 100);
}

TEST(MetricsTest, DelayQuantilesMatchSortedSamples)
{
    // Oracle: the ceil(q * n)-th smallest raw delay. The collector's
    // histogram must return it exactly below 64 slots and at most 1/32
    // below it above. Most delays sit under 64 so the median exercises
    // the exact range; the rest spread up to 100 000 slots.
    const int n = 10'007;  // q * n is never within rounding of an integer
    MetricsCollector m(0, 4);
    Xoshiro256 rng(42);
    std::vector<SlotTime> delays;
    for (int k = 0; k < n; ++k) {
        SlotTime d = rng.nextBernoulli(0.6) ? rng.nextInRange(0, 63)
                                            : rng.nextInRange(64, 100'000);
        delays.push_back(d);
        Cell c = cellAt(0, 0, 0, 0);
        m.noteInjected(c);
        m.noteDelivered(c, d);
    }
    std::sort(delays.begin(), delays.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        auto rank = static_cast<size_t>(std::ceil(q * n));
        auto sample = static_cast<double>(delays[rank - 1]);
        double got = m.delayQuantile(q);
        if (sample < 64) {
            EXPECT_EQ(got, sample) << "q=" << q;
        } else {
            EXPECT_LE(got, sample) << "q=" << q;
            EXPECT_LE(sample - got, sample / 32.0) << "q=" << q;
        }
    }
    EXPECT_LT(m.delayQuantile(0.5), 64.0);
    EXPECT_GE(m.delayQuantile(0.9), 64.0);
}

TEST(MetricsTest, TailQuantilesDoNotSaturate)
{
    // Every delay past 16 384 slots: the quantiles have no fixed ceiling
    // there, and stay within one bin of the order statistic.
    MetricsCollector m(0, 4);
    for (SlotTime d = 30'000; d < 31'000; ++d) {
        Cell c = cellAt(0, 0, 0, 0);
        m.noteInjected(c);
        m.noteDelivered(c, d);
    }
    // The 990th smallest delay is 30 989, in the bin [30 720, 31 232).
    EXPECT_EQ(m.delayQuantile(0.99), 30'720.0);
    // The 500th is 30 499, in [30 208, 30 720).
    EXPECT_EQ(m.delayQuantile(0.5), 30'208.0);
}

TEST(MetricsTest, EmptyQuantileIsZero)
{
    MetricsCollector m(0, 4);
    EXPECT_EQ(m.delayQuantile(0.99), 0.0);
}

TEST(MetricsTest, OccupancyPeakSticky)
{
    MetricsCollector m(0, 4);
    m.noteOccupancy(3);
    m.noteOccupancy(10);
    m.noteOccupancy(4);
    EXPECT_EQ(m.maxOccupancy(), 10);
}

TEST(MetricsTest, NegativeDelayPanics)
{
    MetricsCollector m(0, 4);
    Cell c = cellAt(0, 0, 0, 10);
    EXPECT_THROW(m.noteDelivered(c, 5), InternalError);
}

TEST(MetricsTest, NegativeWarmupRejected)
{
    EXPECT_THROW(MetricsCollector(-1, 4), UsageError);
}

TEST(MetricsTest, NonPositivePortCountRejected)
{
    EXPECT_THROW(MetricsCollector(0, 0), UsageError);
    EXPECT_THROW(MetricsCollector(0, -3), UsageError);
}

}  // namespace
}  // namespace an2
