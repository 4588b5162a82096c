/**
 * Network::run's one promise for parallel runs: results byte-identical
 * to a one-shard run on any shard count, with and without faults.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "an2/matching/pim.h"
#include "an2/topo/lan.h"
#include "an2/topo/topology.h"

using namespace an2;
using namespace an2::topo;

namespace {

LanConfig
testConfig()
{
    LanConfig config;
    config.net.switch_frame_slots = 20;
    config.net.controller_padding = 2;
    config.seed = 99;
    config.matcher = [](int, uint64_t seed) {
        PimConfig cfg;
        cfg.iterations = 4;
        cfg.seed = seed;
        return std::make_unique<PimMatcher>(cfg);
    };
    return config;
}

/** Same topology, same flows, same faults on every Lan under test. */
std::unique_ptr<Lan>
buildLan(const Topology& topo, const std::string& faults)
{
    auto lan = std::make_unique<Lan>(topo, testConfig());
    lan->placeMatrix(Pattern::Uniform,
                     TrafficSpec{TrafficClass::VBR, 0.2, 1}, 7);
    lan->placeMatrix(Pattern::Uniform,
                     TrafficSpec{TrafficClass::CBR, 0.0, 2}, 8);
    if (!faults.empty())
        lan->scheduleFaults(fault::FaultPlan::parse(faults));
    return lan;
}

/** Full observable state: totals plus every per-flow sink statistic. */
void
expectIdentical(const Lan& a, const Lan& b)
{
    LanStats sa = a.stats();
    LanStats sb = b.stats();
    EXPECT_EQ(sa.injected, sb.injected);
    EXPECT_EQ(sa.delivered, sb.delivered);
    EXPECT_EQ(sa.order_violations, sb.order_violations);
    EXPECT_EQ(sa.link_lost, sb.link_lost);
    EXPECT_EQ(sa.vbr_dropped, sb.vbr_dropped);
    EXPECT_EQ(sa.cbr_forwarded, sb.cbr_forwarded);
    EXPECT_EQ(sa.vbr_forwarded, sb.vbr_forwarded);
    EXPECT_EQ(sa.reroutes, sb.reroutes);
    EXPECT_EQ(sa.unroutable, sb.unroutable);
    // Bitwise, not approximate: identical cells in identical order.
    EXPECT_EQ(sa.mean_wall_latency_ps, sb.mean_wall_latency_ps);
    EXPECT_EQ(sa.mean_adjusted_latency_ps, sb.mean_adjusted_latency_ps);

    for (NodeId h : a.topology().hosts()) {
        std::map<FlowId, FlowDeliveryStats> da =
            a.net().controller(h).allDeliveryStats();
        std::map<FlowId, FlowDeliveryStats> db =
            b.net().controller(h).allDeliveryStats();
        ASSERT_EQ(da.size(), db.size());
        for (const auto& [flow, st] : da) {
            ASSERT_TRUE(db.count(flow));
            const FlowDeliveryStats& other = db.at(flow);
            EXPECT_EQ(st.delivered, other.delivered) << "flow " << flow;
            EXPECT_EQ(st.order_violations, other.order_violations);
            EXPECT_EQ(st.wall_latency_ps.sum(), other.wall_latency_ps.sum());
            EXPECT_EQ(st.adjusted_latency_ps.sum(),
                      other.adjusted_latency_ps.sum());
        }
    }
}

}  // namespace

TEST(ParallelNetTest, MatchesOneShardOnEveryShardCount)
{
    Topology topo = Topology::fatTree(4, 1);
    auto one = buildLan(topo, "");
    one->runFrames(30, 1);
    ASSERT_GT(one->stats().delivered, 0);
    ASSERT_GT(one->shardWindows(), 0);

    for (int threads : {2, 5, 8}) {
        auto parallel = buildLan(topo, "");
        parallel->runFrames(30, threads);
        // The windows follow the earliest pending tick, whatever the
        // partition.
        EXPECT_EQ(parallel->shardWindows(), one->shardWindows());
        expectIdentical(*one, *parallel);
    }
}

TEST(ParallelNetTest, MatchesOneShardUnderLinkFaults)
{
    Topology topo = Topology::fatTree(4, 1);
    // Down a core-facing trunk mid-run, revive it later: reroutes fire
    // and in-flight cells are lost, identically on every shard count.
    auto probe = buildLan(topo, "");
    int target = probe->netLinkIndex(0, true);
    std::string faults = "link_down(" + std::to_string(target) +
                         ")@200,link_up(" + std::to_string(target) + ")@500";

    auto one = buildLan(topo, faults);
    one->runFrames(40, 1);

    auto parallel = buildLan(topo, faults);
    parallel->runFrames(40, 4);

    expectIdentical(*one, *parallel);
    // The dead trunk carried rerouted flows; paths agree exactly.
    ASSERT_EQ(one->numFlows(), parallel->numFlows());
    for (FlowId f = 0; f < one->numFlows(); ++f)
        EXPECT_EQ(one->flowPath(f), parallel->flowPath(f));
}

TEST(ParallelNetTest, SegmentedRunsMatchOneShot)
{
    Topology topo = Topology::star(3, 2);
    auto one = buildLan(topo, "");
    one->runFrames(20, 3);

    auto segmented = buildLan(topo, "");
    segmented->runFrames(5, 3);
    segmented->runFrames(20, 3);  // runs are cumulative wall-clock

    expectIdentical(*one, *segmented);
}

TEST(ParallelNetTest, CbrReroutePinningAndVbrFailover)
{
    // A ring has exactly two edge-disjoint paths between any pair, so
    // killing the flow's trunk forces the long way around for VBR and
    // losses for pinned CBR.
    Topology topo = Topology::ring(4, 1);
    auto lan = std::make_unique<Lan>(topo, testConfig());
    std::vector<NodeId> hosts = topo.hosts();
    FlowId vbr = lan->addVbrFlow(hosts[0], hosts[1], 0.3);
    FlowId cbr = lan->addCbrFlow(hosts[0], hosts[1], 2);
    ASSERT_NE(cbr, kNoFlow);

    std::vector<NodeId> vbr_before = lan->flowPath(vbr);
    // Kill the first trunk hop of the VBR path (switch -> switch).
    NodeId u = vbr_before[1];
    NodeId v = vbr_before[2];
    int edge = -1;
    bool a_to_b = true;
    for (const Neighbor& nb : topo.neighbors(u))
        if (nb.node == v) {
            edge = nb.edge;
            a_to_b = topo.edge(nb.edge).a == u;
        }
    ASSERT_GE(edge, 0);
    int target = lan->netLinkIndex(edge, a_to_b);
    lan->scheduleFaults(fault::FaultPlan::parse(
        "link_down(" + std::to_string(target) + ")@100"));
    lan->runFrames(30, 2);

    EXPECT_EQ(lan->reroutes(), 1);
    EXPECT_EQ(lan->unroutable(), 0);
    EXPECT_NE(lan->flowPath(vbr), vbr_before);
    // VBR still flows end to end over the long path; CBR stays pinned
    // through the dead link, visible as lost cells.
    EXPECT_GT(lan->net().controller(hosts[1]).deliveryStats(vbr).delivered,
              0);
    EXPECT_GT(lan->stats().link_lost, 0);
}
