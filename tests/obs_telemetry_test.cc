// Tests for the telemetry layer (an2/obs recorder + time series):
// latency tracking through the Recorder and the simulation loop, the
// windowed metrics time series, and the an2.metrics.v1 / Prometheus
// exporters.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "an2/matching/pim.h"
#include "an2/obs/recorder.h"
#include "an2/obs/timeseries.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

#ifdef AN2_OBS_DISABLED
#define SKIP_IF_OBS_DISABLED() \
    GTEST_SKIP() << "obs layer compiled out (AN2_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_DISABLED() (void)0
#endif

namespace an2::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / gauge name registry

TEST(CounterNamesTest, CounterNamesExhaustive)
{
    // Every counter has a name, no name is the "unknown" fallback, and
    // no two counters share one (a duplicate would silently merge two
    // metrics in every exported document).
    std::set<std::string> seen;
    for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
        const char* name = counterName(static_cast<Counter>(c));
        ASSERT_NE(name, nullptr) << "counter " << c;
        EXPECT_STRNE(name, "") << "counter " << c;
        EXPECT_STRNE(name, "unknown") << "counter " << c;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate counter name '" << name << "'";
    }
    EXPECT_EQ(seen.size(), kNumCounters);
}

TEST(CounterNamesTest, GaugeNamesExhaustive)
{
    std::set<std::string> seen;
    for (int g = 0; g < static_cast<int>(Gauge::kCount); ++g) {
        const char* name = gaugeName(static_cast<Gauge>(g));
        ASSERT_NE(name, nullptr) << "gauge " << g;
        EXPECT_STRNE(name, "") << "gauge " << g;
        EXPECT_STRNE(name, "unknown") << "gauge " << g;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate gauge name '" << name << "'";
    }
    EXPECT_EQ(seen.size(), kNumGauges);
}

// ---------------------------------------------------------------------------
// Recorder latency tracking

TEST(LatencyTrackingTest, DisabledByDefaultButCountsDeliveries)
{
    Recorder rec;
    EXPECT_FALSE(rec.latencyEnabled());
    rec.latencySample(TrafficClass::VBR, 2, 17);
    EXPECT_EQ(rec.counter(Counter::CellsDelivered), 1);
    EXPECT_EQ(rec.latencyHistogram(TrafficClass::VBR).count(), 0);
    EXPECT_EQ(rec.portLatencyHistogram(TrafficClass::VBR, 2), nullptr);
}

TEST(LatencyTrackingTest, ClassAndPortHistograms)
{
    Recorder rec(RecorderConfig{.ports = 4, .track_latency = true});
    ASSERT_TRUE(rec.latencyEnabled());
    rec.latencySample(TrafficClass::VBR, 0, 5);
    rec.latencySample(TrafficClass::VBR, 1, 9);
    rec.latencySample(TrafficClass::CBR, 1, 2);
    EXPECT_EQ(rec.counter(Counter::CellsDelivered), 3);
    EXPECT_EQ(rec.latencyHistogram(TrafficClass::VBR).count(), 2);
    EXPECT_EQ(rec.latencyHistogram(TrafficClass::CBR).count(), 1);
    const LogHistogram* p1 = rec.portLatencyHistogram(TrafficClass::VBR, 1);
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(p1->count(), 1);
    EXPECT_EQ(p1->quantile(1.0), 9);
    // Out-of-range ports record into the class histogram only.
    rec.latencySample(TrafficClass::VBR, 99, 3);
    EXPECT_EQ(rec.latencyHistogram(TrafficClass::VBR).count(), 3);
    EXPECT_EQ(rec.portLatencyHistogram(TrafficClass::VBR, 99), nullptr);
}

TEST(LatencyTrackingTest, DeliveryProbeThroughSimulation)
{
    SKIP_IF_OBS_DISABLED();
    const int n = 8;
    Recorder rec(RecorderConfig{.ports = n, .track_latency = true});
    attach(&rec);
    InputQueuedSwitch sw(IqSwitchConfig{.n = n},
                         std::make_unique<PimMatcher>(
                             PimConfig{.iterations = 4, .seed = 21}));
    UniformTraffic traffic(n, 0.7, 23);
    SimConfig cfg;
    cfg.slots = 400;
    cfg.warmup = 0;
    SimResult res = runSimulation(sw, traffic, cfg);
    detach();

    // Every delivered cell hit the latency probe exactly once.
    EXPECT_EQ(rec.counter(Counter::CellsDelivered), res.delivered);
    const LogHistogram& vbr = rec.latencyHistogram(TrafficClass::VBR);
    EXPECT_EQ(vbr.count(), res.delivered);
    // For a single switch, delivery latency == queueing delay, so the
    // histogram mean must track the simulator's own mean delay to
    // within the histogram's 1/32 relative error.
    EXPECT_NEAR(vbr.mean(), res.mean_delay,
                res.mean_delay / 32.0 + 1e-9);
    // Per-port histograms partition the class histogram.
    int64_t port_total = 0;
    for (PortId j = 0; j < n; ++j) {
        const LogHistogram* h = rec.portLatencyHistogram(TrafficClass::VBR, j);
        ASSERT_NE(h, nullptr);
        port_total += h->count();
    }
    EXPECT_EQ(port_total, vbr.count());
    // Hop delay is populated by the dequeue probe.
    EXPECT_EQ(rec.hopDelayHistogram(TrafficClass::VBR).count(),
              rec.counter(Counter::CellsDequeued));
}

// ---------------------------------------------------------------------------
// Metrics time series

TEST(TimeSeriesTest, DisabledByDefault)
{
    Recorder rec;
    EXPECT_FALSE(rec.metricsEnabled());
    rec.beginSlot(1000);
    rec.sampleMetricsNow(1000);  // no-op, not a crash
    EXPECT_EQ(rec.counter(Counter::MetricsSamples), 0);
}

TEST(TimeSeriesTest, WindowBoundarySampling)
{
    SKIP_IF_OBS_DISABLED();
    const int n = 4;
    Recorder rec(RecorderConfig{
        .ports = n, .track_latency = true, .metrics_every = 100});
    attach(&rec);
    InputQueuedSwitch sw(IqSwitchConfig{.n = n},
                         std::make_unique<PimMatcher>(
                             PimConfig{.iterations = 4, .seed = 31}));
    UniformTraffic traffic(n, 0.6, 37);
    SimConfig cfg;
    cfg.slots = 450;
    cfg.warmup = 0;
    runSimulation(sw, traffic, cfg);
    rec.sampleMetricsNow(450);  // flush the final partial window
    detach();

    // Boundaries at 100, 200, 300, 400 plus the flush at 450.
    const TimeSeries& ts = rec.metrics();
    ASSERT_EQ(ts.size(), 5u);
    EXPECT_EQ(ts.sample(0).slot, 100);
    EXPECT_EQ(ts.sample(3).slot, 400);
    EXPECT_EQ(ts.sample(4).slot, 450);
    EXPECT_EQ(ts.dropped(), 0);
    // The flush is idempotent: re-flushing the same slot adds nothing.
    rec.sampleMetricsNow(450);
    EXPECT_EQ(ts.size(), 5u);
    EXPECT_EQ(rec.counter(Counter::MetricsSamples), 5);

    // Samples are cumulative: counters never decrease across samples,
    // and each sample's SlotsRun matches its stamp.
    for (size_t k = 0; k < ts.size(); ++k) {
        const MetricsSample& s = ts.sample(k);
        EXPECT_EQ(s.counters[static_cast<size_t>(Counter::SlotsRun)],
                  s.slot);
        EXPECT_EQ(s.latency[static_cast<size_t>(TrafficClass::VBR)].count,
                  s.counters[static_cast<size_t>(Counter::CellsDelivered)]);
        if (k > 0) {
            for (size_t c = 0; c < kNumCounters; ++c)
                EXPECT_GE(s.counters[c], ts.sample(k - 1).counters[c]);
        }
    }
}

TEST(TimeSeriesTest, RingDropsOldestWhenFull)
{
    TimeSeries ts(/*every=*/10, /*capacity=*/3);
    ASSERT_TRUE(ts.enabled());
    MetricsSample s{};
    for (int k = 1; k <= 5; ++k) {
        s.slot = k * 10;
        ts.push(s);
    }
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.dropped(), 2);
    EXPECT_EQ(ts.sample(0).slot, 30);
    EXPECT_EQ(ts.sample(2).slot, 50);
}

// ---------------------------------------------------------------------------
// Exporters

/** Run a small seeded simulation with full telemetry attached. */
void
runTelemetry(Recorder& rec, uint64_t seed)
{
    attach(&rec);
    InputQueuedSwitch sw(IqSwitchConfig{.n = 4},
                         std::make_unique<PimMatcher>(
                             PimConfig{.iterations = 4, .seed = seed}));
    UniformTraffic traffic(4, 0.6, seed + 1);
    SimConfig cfg;
    cfg.slots = 300;
    cfg.warmup = 0;
    runSimulation(sw, traffic, cfg);
    rec.sampleMetricsNow(300);
    detach();
}

TEST(MetricsExportTest, JsonLinesShape)
{
    SKIP_IF_OBS_DISABLED();
    Recorder rec(RecorderConfig{
        .ports = 4, .track_latency = true, .metrics_every = 100});
    runTelemetry(rec, 41);
    std::string doc = metricsToJsonLines(rec);

    // One line per sample, each a complete an2.metrics.v1 document
    // naming every counter and gauge.
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.back(), '\n');
    size_t lines = 0;
    for (char ch : doc)
        lines += ch == '\n';
    EXPECT_EQ(lines, rec.metrics().size());
    EXPECT_EQ(doc.find("{\"schema\":\"an2.metrics.v1\",\"source\":"
                       "\"switch\",\"slot\":100,"),
              0u);
    for (int c = 0; c < static_cast<int>(Counter::kCount); ++c)
        EXPECT_NE(doc.find(std::string("\"") +
                           counterName(static_cast<Counter>(c)) + "\":"),
                  std::string::npos);
    for (int g = 0; g < static_cast<int>(Gauge::kCount); ++g)
        EXPECT_NE(doc.find(std::string("\"") +
                           gaugeName(static_cast<Gauge>(g)) + "\":"),
                  std::string::npos);
    EXPECT_NE(doc.find("\"latency\":{\"cbr\":"), std::string::npos);
    EXPECT_NE(doc.find("\"hop_delay\":{\"cbr\":"), std::string::npos);
    EXPECT_NE(doc.find("\"p999\":"), std::string::npos);
}

TEST(MetricsExportTest, JsonLinesDeterministicAcrossRuns)
{
    SKIP_IF_OBS_DISABLED();
    Recorder a(RecorderConfig{
        .ports = 4, .track_latency = true, .metrics_every = 100});
    runTelemetry(a, 43);
    Recorder b(RecorderConfig{
        .ports = 4, .track_latency = true, .metrics_every = 100});
    runTelemetry(b, 43);
    EXPECT_EQ(metricsToJsonLines(a), metricsToJsonLines(b));
    EXPECT_EQ(metricsToPrometheus(a), metricsToPrometheus(b));
}

TEST(MetricsExportTest, PrometheusShape)
{
    SKIP_IF_OBS_DISABLED();
    Recorder rec(RecorderConfig{
        .ports = 4, .track_latency = true, .metrics_every = 100});
    runTelemetry(rec, 47);
    std::string doc = metricsToPrometheus(rec);
    EXPECT_NE(doc.find("# TYPE an2_slots_run counter\nan2_slots_run 300\n"),
              std::string::npos);
    EXPECT_NE(doc.find("an2_buffered_cells "), std::string::npos);
    EXPECT_NE(doc.find(
                  "an2_latency_slots{class=\"vbr\",quantile=\"0.99\"} "),
              std::string::npos);
    EXPECT_NE(doc.find("an2_latency_slots_count{class=\"vbr\"} "),
              std::string::npos);
    EXPECT_NE(doc.find("an2_hop_delay_slots{class=\"vbr\","),
              std::string::npos);
}

TEST(MetricsExportTest, TraceEventsDroppedIsCounted)
{
    SKIP_IF_OBS_DISABLED();
    // A tiny ring under a busy run must account every overwritten event
    // in the proper counter, matching the ring's own tally.
    Recorder rec(RecorderConfig{.trace_capacity = 64, .ports = 4});
    runTelemetry(rec, 53);
    EXPECT_GT(rec.droppedEvents(), 0);
    EXPECT_EQ(rec.counter(Counter::TraceEventsDropped),
              rec.droppedEvents());
}

}  // namespace
}  // namespace an2::obs
