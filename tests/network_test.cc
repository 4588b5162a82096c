// Tests for the drifting-clock network simulator (an2/network/*):
// delivery, CBR pacing, Appendix B bounds, and multi-switch merging.
#include "an2/network/network.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "an2/cbr/timing.h"
#include "an2/matching/pim.h"

namespace an2 {
namespace {

std::unique_ptr<Matcher>
pim(uint64_t seed)
{
    PimConfig cfg;
    cfg.iterations = 4;
    cfg.seed = seed;
    return std::make_unique<PimMatcher>(cfg);
}

TEST(LocalClockTest, SlotTimesScaleWithRateError)
{
    LocalClock nominal(1000, 0.0);
    LocalClock fast(1000, 0.01);
    LocalClock slow(1000, -0.01);
    EXPECT_EQ(nominal.slotStart(100), 100'000);
    EXPECT_LT(fast.slotStart(100), 100'000);
    EXPECT_GT(slow.slotStart(100), 100'000);
    EXPECT_EQ(nominal.nextSlot(), 0);
    nominal.advance();
    EXPECT_EQ(nominal.nextSlot(), 1);
}

TEST(LocalClockTest, NextTickIsSlotStartOfNextSlot)
{
    // nextTick() is kept by advance(); it must equal the rounded slot
    // start computed from the slot index, at any rate error and phase.
    for (double err : {0.0, 1e-4, -1e-4, 3.7e-5})
        for (PicoTime phase : {PicoTime{0}, PicoTime{1}, PicoTime{12'345}}) {
            LocalClock clock(12'800, err, phase);
            EXPECT_EQ(clock.nextTick(), phase);
            for (int k = 0; k < 50'000; ++k) {
                ASSERT_EQ(clock.advance(), k);
                ASSERT_EQ(clock.nextTick(), clock.slotStart(clock.nextSlot()))
                    << "err " << err << " phase " << phase << " slot " << k;
            }
        }
}

TEST(NetLinkTest, DeliversAfterLatency)
{
    NetLink link(500);
    Cell c;
    c.flow = 1;
    link.send(c, 1000);
    EXPECT_TRUE(link.deliverUpTo(1400).empty());
    auto arrived = link.deliverUpTo(1500);
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(link.inFlight(), 0);
    EXPECT_EQ(link.cellsCarried(), 1);
}

TEST(NetworkTest, VbrFlowDeliveredInOrder)
{
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    cfg.controller_padding = 2;
    Network net(cfg);
    NodeId src = net.addController(0.0, 1);
    NodeId sw = net.addSwitch(2, 0.0, pim(2));
    NodeId dst = net.addController(0.0, 3);
    net.connect(src, 0, sw, 0, 100);
    net.connect(sw, 1, dst, 0, 100);
    FlowId f = net.addVbrFlow({src, sw, dst}, 0.5);
    net.runFrames(100);

    const auto& stats = net.controller(dst).deliveryStats(f);
    EXPECT_GT(stats.delivered, 2000);
    EXPECT_EQ(stats.order_violations, 0);
    EXPECT_GT(stats.wall_latency_ps.mean(), 0.0);
}

TEST(NetworkTest, CbrFlowPacedAtReservation)
{
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    cfg.controller_padding = 2;
    Network net(cfg);
    NodeId src = net.addController(0.0, 1);
    NodeId sw = net.addSwitch(2, 0.0, pim(2));
    NodeId dst = net.addController(0.0, 3);
    net.connect(src, 0, sw, 0, 100);
    net.connect(sw, 1, dst, 0, 100);
    constexpr int kCellsPerFrame = 10;
    FlowId f = net.addCbrFlow({src, sw, dst}, kCellsPerFrame);
    ASSERT_NE(f, kNoFlow);

    constexpr int kFrames = 200;
    net.runFrames(kFrames);
    const auto& stats = net.controller(dst).deliveryStats(f);
    // Controller frames are slightly longer than switch frames, so the
    // source completes a bit fewer than kFrames frames.
    auto expected = static_cast<int64_t>(
        kFrames * kCellsPerFrame * 50.0 / 52.0);
    EXPECT_NEAR(static_cast<double>(stats.delivered),
                static_cast<double>(expected), kCellsPerFrame * 3.0);
    EXPECT_EQ(stats.order_violations, 0);
}

TEST(NetworkTest, CbrAdmissionRejectsOverCommit)
{
    NetworkConfig cfg;
    cfg.switch_frame_slots = 20;
    Network net(cfg);
    NodeId src = net.addController(0.0, 1);
    NodeId sw = net.addSwitch(2, 0.0, pim(2));
    NodeId dst = net.addController(0.0, 3);
    net.connect(src, 0, sw, 0, 100);
    net.connect(sw, 1, dst, 0, 100);
    EXPECT_NE(net.addCbrFlow({src, sw, dst}, 15), kNoFlow);
    EXPECT_EQ(net.addCbrFlow({src, sw, dst}, 10), kNoFlow);  // link full
    EXPECT_NE(net.addCbrFlow({src, sw, dst}, 5), kNoFlow);
}

TEST(NetworkTest, AppendixBLatencyAndBufferBoundsHold)
{
    // A 3-switch chain with maximally adversarial clocks: fast source
    // controller, alternating fast/slow switches, 0.5% tolerance.
    constexpr double kTol = 0.005;
    constexpr int kFrame = 50;
    constexpr PicoTime kSlotPs = 1000;
    constexpr PicoTime kLinkPs = 2000;
    NetworkConfig cfg;
    cfg.slot_ps = kSlotPs;
    cfg.switch_frame_slots = kFrame;
    cfg.controller_padding = minControllerPadding(kFrame, kTol);
    Network net(cfg);

    NodeId src = net.addController(+kTol, 1);
    NodeId s1 = net.addSwitch(2, -kTol, pim(2));
    NodeId s2 = net.addSwitch(2, +kTol, pim(3));
    NodeId s3 = net.addSwitch(2, -kTol, pim(4));
    NodeId dst = net.addController(-kTol, 5);
    net.connect(src, 0, s1, 0, kLinkPs);
    net.connect(s1, 1, s2, 0, kLinkPs);
    net.connect(s2, 1, s3, 0, kLinkPs);
    net.connect(s3, 1, dst, 0, kLinkPs);

    constexpr int kCellsPerFrame = 5;
    FlowId f = net.addCbrFlow({src, s1, s2, s3, dst}, kCellsPerFrame);
    ASSERT_NE(f, kNoFlow);
    net.runFrames(400);

    FrameTiming t = makeFrameTiming(
        kFrame, kFrame + cfg.controller_padding,
        static_cast<double>(kSlotPs), kTol, static_cast<double>(kLinkPs));
    constexpr int kHops = 3;

    const auto& stats = net.controller(dst).deliveryStats(f);
    ASSERT_GT(stats.delivered, 1000);
    EXPECT_EQ(stats.order_violations, 0);
    // Formula 3: adjusted latency bounded by 2p(F_s-max + l).
    EXPECT_LE(stats.adjusted_latency_ps.max(), latencyBound(t, kHops));

    // Formula 5: per-switch buffer occupancy bounded per cell/frame.
    double buf_bound = bufferBound(t, kHops) * kCellsPerFrame;
    double frames_bound = maxActiveFrames(t, kHops);
    for (NodeId sw_id : {s1, s2, s3}) {
        const NetSwitch& sw = net.netSwitch(sw_id);
        EXPECT_LE(sw.maxQueuedCells(f), std::ceil(buf_bound));
        EXPECT_GE(sw.maxQueuedCells(f), 1);
        // First displayed formula of B.2: consecutive active frames
        // (per cell class) are bounded.
        EXPECT_LE(sw.maxActiveFrames(f), frames_bound);
        EXPECT_GE(sw.maxActiveFrames(f), 1);
    }
    // Unknown flows read as zero rather than failing.
    EXPECT_EQ(net.netSwitch(s1).maxQueuedCells(f + 1000), 0);
    EXPECT_EQ(net.netSwitch(s1).maxActiveFrames(f + 1000), 0);
}

TEST(NetworkTest, TwoSourcesShareBottleneckRoughlyEqually)
{
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net(cfg);
    NodeId a = net.addController(0.0, 1);
    NodeId b = net.addController(0.0, 2);
    NodeId sw = net.addSwitch(3, 0.0, pim(3));
    NodeId dst = net.addController(0.0, 4);
    net.connect(a, 0, sw, 0, 100);
    net.connect(b, 0, sw, 1, 100);
    net.connect(sw, 2, dst, 0, 100);
    FlowId fa = net.addVbrFlow({a, sw, dst}, 1.0);
    FlowId fb = net.addVbrFlow({b, sw, dst}, 1.0);
    net.runFrames(200);
    auto da = net.controller(dst).deliveryStats(fa).delivered;
    auto db = net.controller(dst).deliveryStats(fb).delivered;
    EXPECT_NEAR(static_cast<double>(da) / static_cast<double>(da + db),
                0.5, 0.05);
}

TEST(NetworkTest, PolicerDropsExcessCbrCells)
{
    // A misbehaving app attempts 15 cells/frame on a 10 cells/frame
    // reservation; the controller meter drops 5 per frame and the
    // network still carries exactly the reservation.
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net2(cfg);
    NodeId src2 = net2.addController(0.0, 1);
    NodeId sw2 = net2.addSwitch(2, 0.0, pim(2));
    NodeId dst2 = net2.addController(0.0, 3);
    net2.connect(src2, 0, sw2, 0, 100);
    net2.connect(sw2, 1, dst2, 0, 100);
    // Wire the flow manually so we can set attempted > reserved.
    bool routed = net2.netSwitch(sw2).addRoute(500, 0, 1,
                                               TrafficClass::CBR, 10);
    ASSERT_TRUE(routed);
    net2.controller(src2).addCbrSource(500, 10, /*attempted=*/15);
    constexpr int kFrames = 100;
    net2.runFrames(kFrames);
    const auto& stats = net2.controller(dst2).deliveryStats(500);
    // Delivered at most the reservation per frame; drops ~5 per frame.
    EXPECT_LE(stats.delivered, kFrames * 10);
    EXPECT_GE(net2.controller(src2).policedDrops(500), (kFrames - 3) * 5);
}

TEST(NetworkTest, VbrBufferLimitDropsOnlyDatagrams)
{
    // Two saturated VBR sources converge on one output; a small VBR
    // buffer cap forces drops, while a CBR flow through the same switch
    // is untouched (its buffers are statically allocated).
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net(cfg);
    NodeId a = net.addController(0.0, 1);
    NodeId b = net.addController(0.0, 2);
    NodeId sw = net.addSwitch(3, 0.0, pim(3));
    NodeId dst = net.addController(0.0, 4);
    net.connect(a, 0, sw, 0, 100);
    net.connect(b, 0, sw, 1, 100);
    net.connect(sw, 2, dst, 0, 100);
    net.netSwitch(sw).setVbrBufferLimit(16);

    FlowId cbr = net.addCbrFlow({a, sw, dst}, 10);
    ASSERT_NE(cbr, kNoFlow);
    FlowId v1 = net.addVbrFlow({a, sw, dst}, 0.8);
    FlowId v2 = net.addVbrFlow({b, sw, dst}, 1.0);
    net.runFrames(200);

    EXPECT_GT(net.netSwitch(sw).vbrDropped(), 0);
    const auto& cbr_stats = net.controller(dst).deliveryStats(cbr);
    EXPECT_EQ(cbr_stats.order_violations, 0);
    // CBR delivered its full reservation despite the VBR congestion.
    EXPECT_GT(cbr_stats.delivered, 190 * 10 * 50 / 52);
    // Both VBR flows still made progress.
    EXPECT_GT(net.controller(dst).deliveryStats(v1).delivered, 0);
    EXPECT_GT(net.controller(dst).deliveryStats(v2).delivered, 0);
}

TEST(NetworkTest, PathValidationErrors)
{
    Network net(NetworkConfig{});
    NodeId c0 = net.addController(0.0, 1);
    NodeId sw = net.addSwitch(2, 0.0, pim(2));
    NodeId c1 = net.addController(0.0, 2);
    net.connect(c0, 0, sw, 0, 100);
    net.connect(sw, 1, c1, 0, 100);
    // Path must start/end at controllers.
    EXPECT_THROW(net.addVbrFlow({sw, c1}, 0.5), UsageError);
    // Unconnected hop.
    EXPECT_THROW(net.addVbrFlow({c1, sw, c0}, 0.5), UsageError);
    // Too short.
    EXPECT_THROW(net.addVbrFlow({c0}, 0.5), UsageError);
}

TEST(NetworkTest, ControllerPortsConnectOnce)
{
    // A second link into or out of a controller is refused. Before, it
    // silently replaced the first: a->b would have carried away every
    // cell a sent for c.
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 100;
    Network net(cfg);
    NodeId a = net.addController(0.0, 1);
    NodeId b = net.addController(0.0, 2);
    NodeId c = net.addController(0.0, 3);
    net.connect(a, 0, c, 0, 100);
    EXPECT_THROW(net.connect(b, 0, c, 0, 100), UsageError);  // c's input
    EXPECT_THROW(net.connect(a, 0, b, 0, 100), UsageError);  // a's output
    EXPECT_EQ(net.numLinks(), 1);
    // The refusal at c's input wired nothing, so b's output is free.
    EXPECT_NO_THROW(net.connect(b, 0, a, 0, 100));
    FlowId f = net.addVbrFlow({a, c}, 1.0);
    net.runFrames(2);
    ASSERT_TRUE(net.controller(c).hasDeliveries(f));
    EXPECT_GT(net.controller(c).deliveryStats(f).delivered, 150);
}

TEST(NetworkTest, ConcentratorSharesOneSwitchPort)
{
    // §2.1: a concentrator card connects four slower workstations to a
    // single AN2 switch port. Modeled as a small 5-port switch: four
    // host-side ports, one uplink. All four hosts reach the sink and
    // share the uplink roughly equally.
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net(cfg);
    std::vector<NodeId> hosts;
    for (int h = 0; h < 4; ++h)
        hosts.push_back(net.addController(0.0, 10 + h));
    NodeId concentrator = net.addSwitch(5, 0.0, pim(6));
    NodeId core = net.addSwitch(2, 0.0, pim(7));
    NodeId sink = net.addController(0.0, 20);
    for (int h = 0; h < 4; ++h)
        net.connect(hosts[static_cast<size_t>(h)], 0, concentrator, h, 100);
    net.connect(concentrator, 4, core, 0, 100);  // the shared uplink
    net.connect(core, 1, sink, 0, 100);

    std::vector<FlowId> flows;
    for (int h = 0; h < 4; ++h)
        flows.push_back(net.addVbrFlow(
            {hosts[static_cast<size_t>(h)], concentrator, core, sink},
            1.0));
    net.runFrames(400);

    std::vector<double> delivered;
    int64_t total = 0;
    for (FlowId f : flows) {
        auto d = net.controller(sink).deliveryStats(f).delivered;
        delivered.push_back(static_cast<double>(d));
        total += d;
    }
    // The uplink is the bottleneck: ~1 cell/slot total, split 4 ways.
    EXPECT_GT(total, 400 * 50 * 9 / 10);
    EXPECT_GT(jainFairnessIndex(delivered), 0.98);
}

TEST(NetworkTest, MeshTopologyRoutesFlowsOverDistinctPaths)
{
    // Four switches in a square; two flows take different sides of the
    // mesh to the same destination host, both delivered in order — the
    // "arbitrary topology" claim of §2.
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net(cfg);
    NodeId src = net.addController(0.0, 1);
    NodeId dst = net.addController(0.0, 2);
    NodeId nw = net.addSwitch(3, +0.0001, pim(3));
    NodeId ne = net.addSwitch(3, -0.0001, pim(4));
    NodeId sw_ = net.addSwitch(3, +0.0002, pim(5));
    NodeId se = net.addSwitch(3, -0.0002, pim(6));
    // src feeds the NW corner; dst hangs off the SE corner.
    net.connect(src, 0, nw, 0, 100);
    net.connect(nw, 1, ne, 0, 100);   // top edge
    net.connect(nw, 2, sw_, 0, 100);  // left edge
    net.connect(ne, 1, se, 0, 100);   // right edge
    net.connect(sw_, 1, se, 1, 100);  // bottom edge
    net.connect(se, 2, dst, 0, 100);

    // Both flows originate at src (sharing its link) but split at NW.
    FlowId top = net.addVbrFlow({src, nw, ne, se, dst}, 0.4);
    FlowId bottom = net.addVbrFlow({src, nw, sw_, se, dst}, 0.4);
    net.runFrames(300);

    const Controller& sink = net.controller(dst);
    EXPECT_GT(sink.deliveryStats(top).delivered, 4000);
    EXPECT_GT(sink.deliveryStats(bottom).delivered, 4000);
    EXPECT_EQ(sink.deliveryStats(top).order_violations, 0);
    EXPECT_EQ(sink.deliveryStats(bottom).order_violations, 0);
}

TEST(NetworkTest, RandomTreeFuzzDeliversEverythingInOrder)
{
    // Fuzz: a random binary-ish tree of switches with hosts at the
    // leaves, random flows leaf-to-leaf via the root. Invariants: every
    // flow makes progress, zero reordering, no crashes.
    Xoshiro256 rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        NetworkConfig cfg;
        cfg.slot_ps = 1000;
        cfg.switch_frame_slots = 40;
        Network net(cfg);

        // Chain of switches with one host on each (a degenerate tree of
        // random depth), plus a hub host at the far end.
        int depth = 2 + static_cast<int>(rng.nextBelow(3));
        std::vector<NodeId> switches;
        std::vector<NodeId> hosts;
        for (int d = 0; d < depth; ++d) {
            double err = (rng.nextDouble() - 0.5) * 2e-4;
            switches.push_back(net.addSwitch(
                3, err, pim(200 + static_cast<uint64_t>(trial * 10 + d))));
            hosts.push_back(
                net.addController(0.0, 300 + static_cast<uint64_t>(d)));
            net.connect(hosts.back(), 0, switches.back(), 0, 100);
        }
        NodeId hub = net.addController(0.0, 400);
        for (int d = 0; d + 1 < depth; ++d)
            net.connect(switches[static_cast<size_t>(d)], 2,
                        switches[static_cast<size_t>(d + 1)], 1, 100);
        net.connect(switches.back(), 2, hub, 0, 100);

        std::vector<FlowId> flows;
        for (int d = 0; d < depth; ++d) {
            std::vector<NodeId> path;
            path.push_back(hosts[static_cast<size_t>(d)]);
            for (int k = d; k < depth; ++k)
                path.push_back(switches[static_cast<size_t>(k)]);
            path.push_back(hub);
            flows.push_back(net.addVbrFlow(path, 0.3));
        }
        net.runFrames(150);
        for (FlowId f : flows) {
            const auto& st = net.controller(hub).deliveryStats(f);
            EXPECT_GT(st.delivered, 500) << "trial " << trial;
            EXPECT_EQ(st.order_violations, 0) << "trial " << trial;
        }
    }
}

TEST(NetworkTest, TwoCbrFlowsShareASwitchUnderDrift)
{
    // Two reservations with different rates cross the same drifting
    // switch; each must be paced at its own rate with no reordering.
    constexpr double kTol = 0.002;
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 60;
    cfg.controller_padding = minControllerPadding(60, kTol);
    Network net(cfg);
    NodeId a = net.addController(+kTol, 1);
    NodeId b = net.addController(-kTol, 2);
    NodeId sw = net.addSwitch(3, +kTol, pim(7));
    NodeId dst = net.addController(-kTol, 3);
    net.connect(a, 0, sw, 0, 100);
    net.connect(b, 0, sw, 1, 100);
    net.connect(sw, 2, dst, 0, 100);
    FlowId fa = net.addCbrFlow({a, sw, dst}, 20);
    FlowId fb = net.addCbrFlow({b, sw, dst}, 30);
    ASSERT_NE(fa, kNoFlow);
    ASSERT_NE(fb, kNoFlow);
    EXPECT_EQ(net.addCbrFlow({a, sw, dst}, 15), kNoFlow);  // output full

    constexpr int kFrames = 300;
    net.runFrames(kFrames);
    const Controller& sink = net.controller(dst);
    double ratio =
        static_cast<double>(sink.deliveryStats(fb).delivered) /
        static_cast<double>(sink.deliveryStats(fa).delivered);
    EXPECT_NEAR(ratio, 1.5, 0.05);  // 30 : 20 cells per frame
    EXPECT_EQ(sink.deliveryStats(fa).order_violations, 0);
    EXPECT_EQ(sink.deliveryStats(fb).order_violations, 0);
}

// The naive serial event loop, the oracle for Network::run's tick ring: rescan
// every node before each tick and take the first earliest one (strict <,
// so the lowest node id wins same-instant ties).
void
runByScan(Network& net, PicoTime until_ps)
{
    while (true) {
        PicoTime best = std::numeric_limits<PicoTime>::max();
        NodeId next = 0;
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            PicoTime t = net.nodeAt(n).nextTick();
            if (t < best) {
                best = t;
                next = n;
            }
        }
        if (best > until_ps)
            return;
        net.nodeAt(next).tick();
    }
}

// Runs the twins to the same segment ends, one through each engine, and
// asserts identical per-flow delivery and per-link traffic.
void
expectRunsMatchScan(Network& ring, Network& scan,
                    const std::vector<PicoTime>& segment_ends)
{
    for (PicoTime until : segment_ends) {
        ring.run(until);
        runByScan(scan, until);
    }
    ASSERT_EQ(ring.numNodes(), scan.numNodes());
    int64_t delivered = 0;
    for (NodeId n = 0; n < ring.numNodes(); ++n) {
        if (ring.isSwitchNode(n))
            continue;
        auto got = ring.controller(n).allDeliveryStats();
        auto want = scan.controller(n).allDeliveryStats();
        ASSERT_EQ(got.size(), want.size()) << "node " << n;
        for (const auto& [flow, st] : got) {
            auto it = want.find(flow);
            ASSERT_NE(it, want.end()) << "flow " << flow;
            const FlowDeliveryStats& ref = it->second;
            EXPECT_EQ(st.delivered, ref.delivered) << "flow " << flow;
            EXPECT_EQ(st.order_violations, ref.order_violations)
                << "flow " << flow;
            EXPECT_EQ(st.wall_latency_ps.sum(), ref.wall_latency_ps.sum())
                << "flow " << flow;
            EXPECT_EQ(st.adjusted_latency_ps.sum(),
                      ref.adjusted_latency_ps.sum())
                << "flow " << flow;
            delivered += st.delivered;
        }
    }
    EXPECT_GT(delivered, 0);
    ASSERT_EQ(ring.numLinks(), scan.numLinks());
    for (int l = 0; l < ring.numLinks(); ++l)
        EXPECT_EQ(ring.linkAt(l).cellsCarried(), scan.linkAt(l).cellsCarried())
            << "link " << l;
}

// Two hosts on each of two switches, every node on the same phase and
// all but s3 on the nominal clock, joined by zero-latency links. Every
// tick is a tie, and a cell sent at a tick reaches a higher-id receiver
// ticking at the same instant but a lower-id one only a slot later, so
// tie order shows in latencies. s3 at rate error -0.5 ticks every other
// slot, still on the others' instants, so its re-keyed entry meets its
// ties out of id order.
void
buildTiedNetwork(Network& net, double s3_rate_error)
{
    NodeId h0 = net.addController(0.0, 1);
    NodeId h1 = net.addController(0.0, 2);
    NodeId s2 = net.addSwitch(3, 0.0, pim(3));
    NodeId s3 = net.addSwitch(3, s3_rate_error, pim(4));
    NodeId h4 = net.addController(0.0, 5);
    NodeId h5 = net.addController(0.0, 6);
    auto duplex = [&](NodeId a, PortId pa, NodeId b, PortId pb) {
        net.connect(a, pa, b, pb, 0);
        net.connect(b, pb, a, pa, 0);
    };
    duplex(h0, 0, s2, 0);
    duplex(h1, 0, s2, 1);
    duplex(s2, 2, s3, 0);
    duplex(s3, 1, h4, 0);
    duplex(s3, 2, h5, 0);
    net.addVbrFlow({h0, s2, s3, h4}, 0.5);
    net.addVbrFlow({h1, s2, s3, h5}, 0.4);
    net.addVbrFlow({h5, s3, s2, h0}, 0.6);
    ASSERT_NE(net.addCbrFlow({h4, s3, s2, h1}, 5), kNoFlow);
}

TEST(NetworkTest, TickRingMatchesScanWithTiedTicks)
{
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    for (double s3_rate_error : {0.0, -0.5}) {
        SCOPED_TRACE(s3_rate_error);
        Network ring(cfg);
        Network scan(cfg);
        buildTiedNetwork(ring, s3_rate_error);
        buildTiedNetwork(scan, s3_rate_error);
        // Segment ends between and on slot boundaries, plus an empty one.
        expectRunsMatchScan(
            ring, scan, {12'345, 50'000, 50'000, 137'500, 200'000, 500'000});
    }
}

// The drifting-clock chain of AppendixBLatencyAndBufferBoundsHold, with a
// VBR flow beside the CBR reservation.
void
buildDriftingChain(Network& net, double tol)
{
    constexpr PicoTime kLinkPs = 2000;
    NodeId src = net.addController(+tol, 1);
    NodeId s1 = net.addSwitch(2, -tol, pim(2));
    NodeId s2 = net.addSwitch(2, +tol, pim(3));
    NodeId s3 = net.addSwitch(2, -tol, pim(4));
    NodeId dst = net.addController(-tol, 5);
    net.connect(src, 0, s1, 0, kLinkPs);
    net.connect(s1, 1, s2, 0, kLinkPs);
    net.connect(s2, 1, s3, 0, kLinkPs);
    net.connect(s3, 1, dst, 0, kLinkPs);
    ASSERT_NE(net.addCbrFlow({src, s1, s2, s3, dst}, 5), kNoFlow);
    net.addVbrFlow({src, s1, s2, s3, dst}, 0.3);
}

TEST(NetworkTest, TickRingMatchesScanWithDriftingClocks)
{
    constexpr double kTol = 0.005;
    constexpr int kFrame = 50;
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = kFrame;
    cfg.controller_padding = minControllerPadding(kFrame, kTol);
    Network ring(cfg);
    Network scan(cfg);
    buildDriftingChain(ring, kTol);
    buildDriftingChain(scan, kTol);
    expectRunsMatchScan(ring, scan,
                        {3'333'333, 7'500'000, 10'000'000, 20'000'000});
}

// Rate error and phase of node i in buildWideDriftLan: errors up to
// +-0.3 and phases within three slots, so a re-keyed entry often passes
// several others in the tick ring.
constexpr double kWideRates[] = {+0.30, -0.30, +0.07, -0.22, 0.00, +0.19,
                                 -0.11, +0.26, -0.04, +0.13, -0.27, +0.02,
                                 -0.17, +0.23, -0.08, +0.11};
constexpr PicoTime kWidePhases[] = {0, 2'731, 410, 1'999, 0, 2'222, 77, 1'500,
                                    999, 2'999, 333, 0, 1'234, 640, 2'048, 4};

// A line of four 6-port switches with three hosts each (ports 0-2), the
// neighbours on ports 3 (left) and 4 (right), and port 5 left free for a
// late host. Switches and hosts interleave in id order; link latencies
// mix zero (same-instant delivery, where tie order shows) with a few
// slots. VBR flows cross one to three switches; one CBR flow crosses two.
void
buildWideDriftLan(Network& net)
{
    std::vector<NodeId> switches;
    std::vector<NodeId> hosts;
    int i = 0;
    for (int s = 0; s < 4; ++s) {
        switches.push_back(
            net.addSwitch(6, kWideRates[i], pim(static_cast<uint64_t>(i)),
                          kWidePhases[i]));
        ++i;
        for (int h = 0; h < 3; ++h, ++i)
            hosts.push_back(net.addController(kWideRates[i],
                                              static_cast<uint64_t>(100 + i),
                                              kWidePhases[i]));
    }
    ASSERT_EQ(net.numNodes(), 16);
    constexpr PicoTime kLatencies[] = {0, 700, 2'500};
    int l = 0;
    auto duplex = [&](NodeId a, PortId pa, NodeId b, PortId pb) {
        net.connect(a, pa, b, pb, kLatencies[l++ % 3]);
        net.connect(b, pb, a, pa, kLatencies[l++ % 3]);
    };
    for (int s = 0; s < 4; ++s)
        for (int h = 0; h < 3; ++h)
            duplex(hosts[static_cast<size_t>(3 * s + h)], 0,
                   switches[static_cast<size_t>(s)], h);
    for (int s = 0; s + 1 < 4; ++s)
        duplex(switches[static_cast<size_t>(s)], 4,
               switches[static_cast<size_t>(s + 1)], 3);
    auto host = [&](int k) { return hosts[static_cast<size_t>(k)]; };
    auto sw = [&](int k) { return switches[static_cast<size_t>(k)]; };
    net.addVbrFlow({host(0), sw(0), sw(1), host(4)}, 0.4);
    net.addVbrFlow({host(5), sw(1), sw(2), sw(3), host(11)}, 0.3);
    net.addVbrFlow({host(10), sw(3), sw(2), host(7)}, 0.5);
    net.addVbrFlow({host(8), sw(2), sw(1), sw(0), host(1)}, 0.25);
    net.addVbrFlow({host(2), sw(0), host(0)}, 0.6);
    ASSERT_NE(net.addCbrFlow({host(3), sw(1), sw(2), host(6)}, 4), kNoFlow);
}

// A host joins switch 3's free port between two run() calls. Its clock
// starts at wall time 0, so the ring first replays its missed ticks one
// after another, each re-keyed entry passing every other node.
void
addLateHost(Network& net)
{
    // buildWideDriftLan's ids: switches 0, 4, 8 and 12, each followed by
    // its three hosts.
    constexpr NodeId kSw1 = 4;
    constexpr NodeId kSw2 = 8;
    constexpr NodeId kSw3 = 12;
    NodeId host = net.addController(-0.15, 999, 0);
    net.connect(host, 0, kSw3, 5, 300);
    net.connect(kSw3, 5, host, 0, 300);
    net.addVbrFlow({host, kSw3, kSw2, kSw1, kSw1 + 1}, 0.35);
    net.addVbrFlow({kSw2 + 1, kSw2, kSw3, host}, 0.2);
}

TEST(NetworkTest, TickRingMatchesScanWithWideDriftAndLateNode)
{
    constexpr int kFrame = 50;
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = kFrame;
    cfg.controller_padding = minControllerPadding(kFrame, 0.3);
    Network ring(cfg);
    Network scan(cfg);
    buildWideDriftLan(ring);
    buildWideDriftLan(scan);
    expectRunsMatchScan(ring, scan, {7'777, 40'000, 40'000, 123'456});
    addLateHost(ring);
    addLateHost(scan);
    expectRunsMatchScan(ring, scan, {123'456, 200'001, 350'000, 600'000});
}

TEST(NetworkTest, TypedAccessorsValidateKind)
{
    Network net(NetworkConfig{});
    NodeId c0 = net.addController(0.0, 1);
    NodeId sw = net.addSwitch(2, 0.0, pim(2));
    EXPECT_THROW(net.controller(sw), UsageError);
    EXPECT_THROW(net.netSwitch(c0), UsageError);
    EXPECT_NO_THROW(net.controller(c0));
    EXPECT_NO_THROW(net.netSwitch(sw));
}

}  // namespace
}  // namespace an2
