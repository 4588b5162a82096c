// The contract an2.netsweep.v1 documents ride on: the engine's shard
// count is a wall-clock choice, never a results choice. These tests run
// the same NetSweepSpec on one shard and on several and require the
// serialized JSON — every digit of every aggregate — to be
// byte-identical, with and without a link fault plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "an2/fault/fault_plan.h"
#include "an2/topo/net_metrics.h"
#include "an2/topo/net_sweep.h"

namespace an2::topo {
namespace {

NetSweepSpec
smallSpec()
{
    NetSweepSpec spec;
    spec.name = "netsweep-test";
    spec.description = "tiny star + torus grid for byte-identity tests";
    spec.topos = {{"star(4x2)", [] { return Topology::star(4, 2); }},
                  {"torus(3x3)",
                   [] { return Topology::mesh(3, 3, true, 2); }}};
    spec.loads = {0.1, 0.2};
    spec.replicates = 2;
    spec.frames = 5;
    spec.base_seed = 77;
    return spec;
}

std::string
jsonAtThreads(const NetSweepSpec& spec, int engine_threads)
{
    return netSweepToJson(spec, runNetSweep(spec, engine_threads));
}

TEST(NetSweepTest, JsonIsByteIdenticalAcrossEngineThreadCounts)
{
    NetSweepSpec spec = smallSpec();
    const std::string serial = jsonAtThreads(spec, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("\"an2.netsweep.v1\""), std::string::npos);
    EXPECT_EQ(jsonAtThreads(spec, 2), serial);
    EXPECT_EQ(jsonAtThreads(spec, 8), serial);
}

TEST(NetSweepTest, JsonIsByteIdenticalUnderLinkFaults)
{
    NetSweepSpec spec = smallSpec();
    // Down one trunk direction early, revive it later; both test topos
    // have more than four directed links, so target 3 is always valid.
    spec.faults = fault::FaultPlan::parse("link_down(3)@40,link_up(3)@400");
    const std::string serial = jsonAtThreads(spec, 1);
    EXPECT_NE(serial.find("\"faults\""), std::string::npos);
    EXPECT_NE(serial.find("\"reroutes\""), std::string::npos);
    EXPECT_EQ(jsonAtThreads(spec, 2), serial);
    EXPECT_EQ(jsonAtThreads(spec, 8), serial);
}

TEST(NetSweepTest, JsonIsByteIdenticalUnderRevivalStorm)
{
    // Flap the same link twice in quick succession (kill -> revive ->
    // kill -> revive, all inside one metrics window). Every router in
    // every shard must rebuild its cached fields on each epoch bump;
    // a stale next-hop in any one shard would desynchronize the
    // runs and break byte-identity.
    NetSweepSpec spec = smallSpec();
    spec.faults = fault::FaultPlan::parse(
        "link_down(3)@40,link_up(3)@60,link_down(3)@80,link_up(3)@400");
    const std::string serial = jsonAtThreads(spec, 1);
    EXPECT_NE(serial.find("\"faults\""), std::string::npos);
    EXPECT_EQ(jsonAtThreads(spec, 2), serial);
    EXPECT_EQ(jsonAtThreads(spec, 8), serial);
}

TEST(NetSweepTest, FaultKeysAppearOnlyUnderAFaultPlan)
{
    NetSweepSpec spec = smallSpec();
    const std::string clean = jsonAtThreads(spec, 1);
    EXPECT_EQ(clean.find("\"faults\""), std::string::npos);
    EXPECT_EQ(clean.find("\"reroutes\""), std::string::npos);
    EXPECT_EQ(clean.find("\"link_lost\""), std::string::npos);
}

TEST(NetSweepTest, CellGridIsTopoMajorAndPopulated)
{
    NetSweepSpec spec = smallSpec();
    std::vector<NetCellSummary> cells = runNetSweep(spec, 2);
    ASSERT_EQ(cells.size(), spec.topos.size() * spec.loads.size());
    for (size_t ti = 0; ti < spec.topos.size(); ++ti) {
        for (size_t li = 0; li < spec.loads.size(); ++li) {
            const NetCellSummary& c = cells[ti * spec.loads.size() + li];
            EXPECT_EQ(c.topo, spec.topos[ti].name);
            EXPECT_DOUBLE_EQ(c.load, spec.loads[li]);
            EXPECT_EQ(c.replicates, spec.replicates);
            EXPECT_GT(c.injected, 0);
            EXPECT_GT(c.delivered, 0);
            EXPECT_GT(c.throughput.mean, 0.0);
            EXPECT_LE(c.throughput.mean, 1.0);
        }
    }
}

std::string
metricsAtThreads(const NetSweepSpec& spec, int engine_threads,
                 int64_t every_slots)
{
    LanMetricsSeries series(every_slots);
    observeNetPoint(spec, engine_threads, series);
    return series.toJsonLines();
}

TEST(NetMetricsTest, SeriesIsByteIdenticalAcrossEngineThreadCounts)
{
    // The shard-merge contract extends to the metrics time series: the
    // observed point's an2.metrics.v1 lines — every counter and every
    // digit of every float — must not depend on the engine threading.
    NetSweepSpec spec = smallSpec();
    const std::string serial = metricsAtThreads(spec, 1, /*every=*/100);
    EXPECT_FALSE(serial.empty());
    EXPECT_NE(serial.find("\"an2.metrics.v1\""), std::string::npos);
    EXPECT_NE(serial.find("\"source\":\"lan\""), std::string::npos);
    EXPECT_EQ(metricsAtThreads(spec, 2, 100), serial);
    EXPECT_EQ(metricsAtThreads(spec, 8, 100), serial);
}

TEST(NetMetricsTest, SeriesIsByteIdenticalUnderLinkFaults)
{
    NetSweepSpec spec = smallSpec();
    spec.faults = fault::FaultPlan::parse("link_down(3)@40,link_up(3)@400");
    const std::string serial = metricsAtThreads(spec, 1, /*every=*/100);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(metricsAtThreads(spec, 2, 100), serial);
    EXPECT_EQ(metricsAtThreads(spec, 8, 100), serial);
}

TEST(NetMetricsTest, SamplesLandOnWindowBoundaries)
{
    NetSweepSpec spec = smallSpec();
    LanMetricsSeries series(/*every_slots=*/150);
    observeNetPoint(spec, 2, series);
    // 5 frames x 100 slots = 500 slots: boundaries at 150, 300, 450,
    // then the tail sample at the run's end.
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.at(0).slot, 150);
    EXPECT_EQ(series.at(2).slot, 450);
    EXPECT_EQ(series.at(3).slot, 500);
    // Cumulative: injections never decrease, and the final sample
    // matches a straight runFrames() of the same point.
    for (size_t k = 1; k < series.size(); ++k)
        EXPECT_GE(series.at(k).stats.injected,
                  series.at(k - 1).stats.injected);
    EXPECT_GT(series.at(3).stats.delivered, 0);
    // Per-class splits partition the totals.
    const LanStats& last = series.at(3).stats;
    EXPECT_EQ(last.cbr_injected + last.vbr_injected, last.injected);
    EXPECT_EQ(last.cbr_delivered + last.vbr_delivered, last.delivered);
}

TEST(NetSweepTest, RejectsNonPositiveAndOverUnityLoads)
{
    NetSweepSpec bad = smallSpec();
    bad.loads = {0.1, 0.0};
    EXPECT_THROW(runNetSweep(bad, 1), UsageError);
    bad.loads = {1.5};
    EXPECT_THROW(runNetSweep(bad, 1), UsageError);
}

TEST(NetSweepTest, RejectsFaultTargetsOutsideTheTopology)
{
    NetSweepSpec spec = smallSpec();
    spec.faults = fault::FaultPlan::parse("link_down(100000)@40");
    EXPECT_THROW(runNetSweep(spec, 1), UsageError);
}

}  // namespace
}  // namespace an2::topo
