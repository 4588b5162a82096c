// CBR path restoration (an2/fault/restoration.h): revoke / re-route /
// re-admit with seeded retry+backoff. Covers the terminal-state machine
// (Restored / Degraded / Abandoned), the no-restorer downstream-release
// fix, reservation/dead-element consistency under chaos churn, and engine
// byte-identity with restoration armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "an2/fault/chaos.h"
#include "an2/fault/fault_plan.h"
#include "an2/fault/restoration.h"
#include "an2/matching/pim.h"
#include "an2/topo/lan.h"
#include "an2/topo/net_metrics.h"
#include "an2/topo/net_sweep.h"
#include "an2/topo/topology.h"

namespace an2 {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::RestorePolicy;
using fault::RestoreState;

topo::LanConfig
lanConfig(uint64_t seed = 1)
{
    topo::LanConfig config;
    config.seed = seed;
    config.matcher = [](int /*n_ports*/, uint64_t s) {
        PimConfig cfg;
        cfg.iterations = 2;
        cfg.seed = s;
        return std::make_unique<PimMatcher>(cfg);
    };
    return config;
}

/** Fast deterministic policy for short test horizons. */
RestorePolicy
fastPolicy(int budget = 8)
{
    RestorePolicy policy;
    policy.retry_budget = budget;
    policy.base_backoff_slots = 4;
    policy.max_backoff_slots = 64;
    policy.jitter_slots = 0;
    policy.seed = 99;
    return policy;
}

FaultPlan
linkDownAt(int link, SlotTime slot)
{
    FaultPlan plan;
    plan.events.push_back(FaultEvent{slot, FaultKind::LinkDown, link});
    return plan;
}

/** First host attached to switch `sw`, or -1. */
NodeId
hostAt(const topo::Topology& topo, NodeId sw, int skip = 0)
{
    for (NodeId h : topo.hosts())
        if (topo.hostSwitch(h) == sw && skip-- == 0)
            return h;
    return -1;
}

// ---------------------------------------------------------------------------
// Restored on a multipath topology

TEST(RestorationTest, FlowRestoredAroundDeadFatTreeLink)
{
    topo::Topology topo = topo::Topology::fatTree(4, 2);
    topo::Lan lan(topo, lanConfig());

    // One CBR flow between different pods: host -> edge -> agg -> core
    // -> agg -> edge -> host, with ECMP alternatives at every trunk tier.
    const NodeId src = topo.hosts().front();
    const NodeId dst = topo.hosts().back();
    const FlowId flow = lan.addCbrFlow(src, dst, 2);
    ASSERT_NE(flow, kNoFlow);
    const std::vector<NodeId> path0 = lan.flowPath(flow);
    ASSERT_EQ(path0.size(), 7u);

    lan.enableRestoration(fastPolicy());
    // Kill the edge->agg trunk the flow rides (the second path link).
    const int dead = lan.pathLinks(path0)[1];
    lan.scheduleFaults(linkDownAt(dead, 150));
    lan.runFrames(10);

    const fault::PathRestorer* pr = lan.restorer();
    ASSERT_NE(pr, nullptr);
    ASSERT_TRUE(pr->tracked(flow));
    EXPECT_EQ(pr->state(flow), RestoreState::Restored);
    EXPECT_EQ(pr->pendingCount(), 0);
    EXPECT_EQ(pr->stats().restored, 1);
    EXPECT_GE(pr->stats().latency_slots.count(), 1);

    // Full rate re-admitted, on a live path that avoids the dead link.
    EXPECT_EQ(lan.flowInfo(flow).cbr_admitted, 2);
    const std::vector<LinkId> links = lan.pathLinks(lan.flowPath(flow));
    EXPECT_EQ(std::find(links.begin(), links.end(), dead), links.end());
    for (LinkId l : links)
        EXPECT_TRUE(lan.net().linkAt(l).isUp());

    const topo::LanStats stats = lan.stats();
    EXPECT_EQ(stats.cbr_restored, 1);
    EXPECT_EQ(stats.cbr_restore_pending, 0);
    EXPECT_GT(stats.cbr_delivered, 0);
}

// ---------------------------------------------------------------------------
// Terminal states on a single-path topology

TEST(RestorationTest, SinglePathFlowAbandonedAfterBudget)
{
    topo::Topology topo = topo::Topology::star(4, 2);
    topo::Lan lan(topo, lanConfig());

    // Hosts in different buildings: the trunk is the only route.
    const NodeId src = topo.hosts().front();
    const NodeId dst = topo.hosts().back();
    const FlowId flow = lan.addCbrFlow(src, dst, 2);
    ASSERT_NE(flow, kNoFlow);

    const RestorePolicy policy = fastPolicy(/*budget=*/3);
    lan.enableRestoration(policy);
    const int dead = lan.pathLinks(lan.flowPath(flow))[1];
    lan.scheduleFaults(linkDownAt(dead, 100));
    lan.runFrames(10);

    const fault::PathRestorer* pr = lan.restorer();
    ASSERT_TRUE(pr->tracked(flow));
    EXPECT_EQ(pr->state(flow), RestoreState::Abandoned);
    EXPECT_EQ(pr->attempts(flow), policy.retry_budget + 1);
    EXPECT_EQ(pr->stats().abandoned, 1);
    EXPECT_EQ(pr->stats().retries, policy.retry_budget + 1);
    EXPECT_EQ(lan.flowInfo(flow).cbr_admitted, 0);
    EXPECT_EQ(lan.stats().cbr_abandoned, 1);
}

TEST(RestorationTest, SinglePathFlowRestoredAfterRevival)
{
    topo::Topology topo = topo::Topology::star(4, 2);
    topo::Lan lan(topo, lanConfig());
    const FlowId flow =
        lan.addCbrFlow(topo.hosts().front(), topo.hosts().back(), 2);
    ASSERT_NE(flow, kNoFlow);

    lan.enableRestoration(fastPolicy(/*budget=*/10));
    const int dead = lan.pathLinks(lan.flowPath(flow))[1];
    FaultPlan plan = linkDownAt(dead, 100);
    plan.events.push_back(FaultEvent{300, FaultKind::LinkUp, dead});
    lan.scheduleFaults(plan);
    lan.runFrames(10);

    const fault::PathRestorer* pr = lan.restorer();
    EXPECT_EQ(pr->state(flow), RestoreState::Restored);
    EXPECT_GT(pr->attempts(flow), 0);  // early retries failed
    EXPECT_EQ(lan.flowInfo(flow).cbr_admitted, 2);
    EXPECT_EQ(lan.stats().cbr_restored, 1);
}

TEST(RestorationTest, DegradedFallbackWhenFullRateWontFit)
{
    // 2x2 mesh, frame of 8 slots. Flow A (4 cells/frame) rides one
    // diagonal; a 6-cells/frame competitor pins the alternate middle
    // link. When A's trunk dies, the only live path has 2 spare slots:
    // retries at full rate fail, and budget exhaustion degrades A to 2.
    topo::Topology topo = topo::Topology::mesh(2, 2, /*torus=*/false, 2);
    topo::LanConfig config = lanConfig();
    config.net.switch_frame_slots = 8;
    topo::Lan lan(topo, config);

    const NodeId s0 = topo.hostSwitch(topo.hosts().front());
    // The diagonal switch is the one s0 has no edge to.
    NodeId diag = -1;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        if (topo.isHost(n) || n == s0)
            continue;
        bool adjacent = false;
        for (int e = 0; e < topo.numEdges(); ++e) {
            const topo::TopoEdge& te = topo.edge(e);
            if ((te.a == s0 && te.b == n) || (te.b == s0 && te.a == n))
                adjacent = true;
        }
        if (!adjacent)
            diag = n;
    }
    ASSERT_GE(diag, 0);

    const FlowId a = lan.addCbrFlow(hostAt(topo, s0), hostAt(topo, diag), 4);
    ASSERT_NE(a, kNoFlow);
    const std::vector<NodeId> path_a = lan.flowPath(a);
    ASSERT_EQ(path_a.size(), 5u);  // host, s0, mid, diag, host
    const NodeId mid = path_a[2];

    // The alternate middle switch: adjacent to both s0 and diag, != mid.
    NodeId alt = -1;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        if (!topo.isHost(n) && n != s0 && n != diag && n != mid)
            alt = n;
    ASSERT_GE(alt, 0);
    const FlowId competitor =
        lan.addCbrFlow(hostAt(topo, alt), hostAt(topo, diag, 1), 6);
    ASSERT_NE(competitor, kNoFlow);

    const RestorePolicy policy = fastPolicy(/*budget=*/2);
    lan.enableRestoration(policy);
    lan.scheduleFaults(linkDownAt(lan.pathLinks(path_a)[1], 100));
    lan.runFrames(20);

    const fault::PathRestorer* pr = lan.restorer();
    ASSERT_TRUE(pr->tracked(a));
    EXPECT_EQ(pr->state(a), RestoreState::Degraded);
    EXPECT_EQ(lan.flowInfo(a).cbr_admitted, 2);
    EXPECT_EQ(lan.flowInfo(a).cbr_cells, 4);
    EXPECT_FALSE(pr->tracked(competitor));
    EXPECT_EQ(lan.flowInfo(competitor).cbr_admitted, 6);
    const topo::LanStats stats = lan.stats();
    EXPECT_EQ(stats.cbr_degraded, 1);
    EXPECT_EQ(stats.cbr_restored, 0);
}

// ---------------------------------------------------------------------------
// Satellite fix: downstream release without a restorer

TEST(RestorationTest, DeadLinkReleasesDownstreamReservationsWithoutRestorer)
{
    topo::Topology topo = topo::Topology::star(4, 2);
    topo::Lan lan(topo, lanConfig());
    const FlowId flow =
        lan.addCbrFlow(topo.hosts().front(), topo.hosts().back(), 2);
    ASSERT_NE(flow, kNoFlow);

    // Kill the leaf->core trunk: the core->leaf and leaf->host hops
    // downstream hold 2 cells/frame each that nothing can ever use.
    const std::vector<LinkId> links = lan.pathLinks(lan.flowPath(flow));
    ASSERT_EQ(links.size(), 4u);
    lan.scheduleFaults(linkDownAt(links[1], 200));
    lan.runFrames(10);

    const topo::LanStats stats = lan.stats();
    EXPECT_EQ(stats.cbr_downstream_released, 2 * 2);
    EXPECT_GT(stats.link_lost, 0);  // the source keeps transmitting
    EXPECT_EQ(stats.cbr_restored, 0);
    // The freed capacity is genuinely available again downstream.
    EXPECT_TRUE(lan.net().admission().canAdmit({links[2], links[3]},
                                               lan.net().config()
                                                   .switch_frame_slots));
}

// ---------------------------------------------------------------------------
// Acceptance scenario: one trunk outage hitting many reservations

TEST(RestorationTest, TrunkOutageRestoresAllAffectedFlowsAtFullRate)
{
    // A CBR matrix on a fat-tree, then kill the busiest inter-switch
    // trunk: every reservation crossing it must end Restored at its
    // registered rate, with measured latency, and steady-state delivery
    // must return to within 1% of the pre-fault per-frame rate.
    topo::Topology topo = topo::Topology::fatTree(4, 4);
    topo::Lan lan(topo, lanConfig(5));
    ASSERT_GT(lan.placeMatrix(topo::Pattern::Uniform,
                              topo::TrafficSpec{TrafficClass::CBR, 0.0, 1},
                              4242),
              0);
    lan.enableRestoration(fastPolicy());

    std::vector<int> use(static_cast<size_t>(lan.net().numLinks()), 0);
    for (FlowId f = 0; f < lan.numFlows(); ++f)
        for (LinkId l : lan.pathLinks(lan.flowPath(f)))
            ++use[static_cast<size_t>(l)];
    int dead = -1;
    for (int l = 0; l < lan.net().numLinks(); ++l) {
        const Network::LinkEnds ends = lan.net().linkEnds(l);
        if (topo.isHost(ends.from) || topo.isHost(ends.to))
            continue;  // host access links have no alternate path
        if (dead < 0 || use[static_cast<size_t>(l)] >
                            use[static_cast<size_t>(dead)])
            dead = l;
    }
    ASSERT_GE(use[static_cast<size_t>(dead)], 5);
    std::vector<FlowId> hit;
    for (FlowId f = 0; f < lan.numFlows(); ++f) {
        const std::vector<LinkId> links = lan.pathLinks(lan.flowPath(f));
        if (std::find(links.begin(), links.end(), dead) != links.end())
            hit.push_back(f);
    }
    lan.scheduleFaults(linkDownAt(dead, 2050));

    // Pre-fault delivery rate over frames [12, 20), past the multi-hop
    // pipeline-fill ramp.
    const PicoTime frame_ps = lan.net().config().switch_frame_slots *
                              lan.net().config().slot_ps;
    lan.run(12 * frame_ps);
    const int64_t d0 = lan.stats().cbr_delivered;
    lan.run(20 * frame_ps);
    const int64_t pre = lan.stats().cbr_delivered - d0;
    ASSERT_GT(pre, 0);

    // Outage at slot 2050, then a long settle window.
    lan.run(32 * frame_ps);
    const fault::PathRestorer* pr = lan.restorer();
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->stats().episodes,
              static_cast<int64_t>(hit.size()));
    EXPECT_EQ(pr->stats().restored,
              static_cast<int64_t>(hit.size()));
    EXPECT_EQ(pr->stats().latency_slots.count(),
              static_cast<int64_t>(hit.size()));
    EXPECT_EQ(pr->pendingCount(), 0);
    for (FlowId f : hit) {
        EXPECT_EQ(pr->state(f), RestoreState::Restored) << "flow " << f;
        const topo::Lan::FlowInfo info = lan.flowInfo(f);
        EXPECT_EQ(info.cbr_admitted, info.cbr_cells) << "flow " << f;
        for (LinkId l : lan.pathLinks(lan.flowPath(f))) {
            EXPECT_NE(l, dead);
            EXPECT_TRUE(lan.net().linkAt(l).isUp());
        }
    }

    // Post-restoration delivery rate over frames [32, 40).
    const int64_t d1 = lan.stats().cbr_delivered;
    lan.run(40 * frame_ps);
    const int64_t post = lan.stats().cbr_delivered - d1;
    EXPECT_NEAR(static_cast<double>(post), static_cast<double>(pre),
                0.01 * static_cast<double>(pre));
}

// ---------------------------------------------------------------------------
// Chaos churn: terminal states and reservation consistency

TEST(RestorationTest, ChaosChurnLeavesNoReservationOnADeadElement)
{
    topo::Topology topo = topo::Topology::mesh(3, 3, /*torus=*/true, 2);
    topo::Lan lan(topo, lanConfig(5));
    lan.placeMatrix(topo::Pattern::Uniform,
                    topo::TrafficSpec{TrafficClass::CBR, 0.0, 2}, 1234);
    ASSERT_GT(lan.numFlows(), 0);

    lan.enableRestoration(fastPolicy());
    const SlotTime horizon =
        30 * lan.net().config().switch_frame_slots;
    lan.scheduleFaults(fault::expandChaos(
        fault::ChaosSpec::parse("chaos(3,6,port+link+switch)"),
        fault::chaosEnvFor(lan.net(), horizon)));
    lan.runFrames(30);

    const fault::PathRestorer* pr = lan.restorer();
    ASSERT_NE(pr, nullptr);
    const fault::RestoreStats& rs = pr->stats();
    EXPECT_GT(rs.episodes, 0) << "churn never hit a CBR flow";
    // The ledger balances: every revoked slot is re-placed, shed, or
    // held by a still-pending episode (the invariant checker enforces
    // the full identity after every restorer step; here the test pins
    // the terminal part of it).
    EXPECT_EQ(rs.restored + rs.degraded + rs.abandoned + pr->pendingCount(),
              rs.episodes);
    EXPECT_GE(rs.slots_revoked, rs.slots_replaced + rs.slots_shed);
    if (pr->pendingCount() == 0) {
        EXPECT_EQ(rs.slots_revoked, rs.slots_replaced + rs.slots_shed);
    }

    // Every admitted flow references only live links; every tracked
    // flow sits in a legal state with attempts within budget.
    for (FlowId f = 0; f < lan.numFlows(); ++f) {
        const topo::Lan::FlowInfo info = lan.flowInfo(f);
        if (info.cbr_admitted > 0) {
            for (LinkId l : lan.pathLinks(lan.flowPath(f)))
                EXPECT_TRUE(lan.net().linkAt(l).isUp())
                    << "flow " << f << " reserved across dead link " << l;
        }
        if (pr->tracked(f)) {
            EXPECT_LE(pr->attempts(f), fastPolicy().retry_budget + 1);
            const RestoreState st = pr->state(f);
            EXPECT_TRUE(st == RestoreState::Pending ||
                        st == RestoreState::Restored ||
                        st == RestoreState::Degraded ||
                        st == RestoreState::Abandoned);
        }
    }
    const topo::LanStats stats = lan.stats();
    EXPECT_EQ(stats.cbr_restored + stats.cbr_degraded +
                  stats.cbr_abandoned + stats.cbr_restore_pending,
              rs.episodes);
}

// ---------------------------------------------------------------------------
// Engine byte-identity with restoration and chaos armed

topo::NetSweepSpec
chaosSpec()
{
    topo::NetSweepSpec spec;
    spec.name = "restore-test";
    spec.description = "chaos + restoration byte-identity";
    spec.topos = {{"torus(3x3)",
                   [] { return topo::Topology::mesh(3, 3, true, 2); }}};
    spec.loads = {0.1};
    spec.replicates = 2;
    spec.frames = 8;
    spec.base_seed = 99;
    spec.cbr_cells_per_frame = 2;
    spec.chaos = fault::ChaosSpec::parse("chaos(17,5,link+switch+storm)");
    spec.restore = true;
    return spec;
}

TEST(RestorationTest, ChaosSweepJsonIsByteIdenticalAcrossThreadCounts)
{
    const topo::NetSweepSpec spec = chaosSpec();
    const std::string serial =
        netSweepToJson(spec, runNetSweep(spec, 1));
    EXPECT_NE(serial.find("\"chaos\""), std::string::npos);
    EXPECT_NE(serial.find("\"cbr_restored\""), std::string::npos);
    EXPECT_NE(serial.find("\"restore\""), std::string::npos);
    EXPECT_EQ(netSweepToJson(spec, runNetSweep(spec, 2)), serial);
    EXPECT_EQ(netSweepToJson(spec, runNetSweep(spec, 8)), serial);
}

TEST(RestorationTest, ChaosMetricsSeriesIsByteIdenticalAcrossThreadCounts)
{
    const topo::NetSweepSpec spec = chaosSpec();
    auto lines = [&](int threads) {
        topo::LanMetricsSeries series(spec.net.switch_frame_slots);
        observeNetPoint(spec, threads, series);
        return series.toJsonLines();
    };
    const std::string serial = lines(1);
    EXPECT_NE(serial.find("\"cbr_restore_retries\""), std::string::npos);
    EXPECT_NE(serial.find("\"cbr_restore_pending\""), std::string::npos);
    EXPECT_EQ(lines(2), serial);
    EXPECT_EQ(lines(8), serial);
}

TEST(RestorationTest, RestorationKeysAppearOnlyWhenArmed)
{
    topo::NetSweepSpec spec = chaosSpec();
    spec.chaos = fault::ChaosSpec{};
    spec.restore = false;
    const std::string clean = netSweepToJson(spec, runNetSweep(spec, 1));
    EXPECT_EQ(clean.find("\"chaos\""), std::string::npos);
    EXPECT_EQ(clean.find("\"restore\""), std::string::npos);
    EXPECT_EQ(clean.find("\"cbr_restored\""), std::string::npos);
}

}  // namespace
}  // namespace an2
