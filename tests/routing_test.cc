/** Shortest-path, ECMP determinism, and failover properties of Router,
    and its equivalence with the per-destination BFS oracle. */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/topo/routing.h"
#include "an2/topo/topology.h"
#include "naive_router.h"

using namespace an2;
using namespace an2::topo;

namespace {

/** True when `path` walks existing edges from src to dst. */
void
expectValidPath(const Topology& t, const std::vector<NodeId>& path,
                NodeId src, NodeId dst)
{
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    for (size_t k = 0; k + 1 < path.size(); ++k) {
        bool adjacent = false;
        for (const Neighbor& nb : t.neighbors(path[k]))
            adjacent = adjacent || nb.node == path[k + 1];
        EXPECT_TRUE(adjacent) << path[k] << " -> " << path[k + 1];
    }
}

}  // namespace

TEST(RoutingTest, PathsAreShortest)
{
    Topology t = Topology::fatTree(4, 2);
    Router r(t);
    std::vector<NodeId> hosts = t.hosts();
    for (size_t i = 0; i < hosts.size(); ++i) {
        NodeId src = hosts[i];
        NodeId dst = hosts[(i + 5) % hosts.size()];
        if (src == dst)
            continue;
        auto flow = static_cast<FlowId>(i);
        std::vector<NodeId> path = r.path(src, dst, flow);
        expectValidPath(t, path, src, dst);
        EXPECT_EQ(static_cast<int>(path.size()) - 1, r.distance(src, dst));
        // Every step makes progress: d decreases by exactly one.
        for (size_t k = 0; k + 1 < path.size(); ++k)
            EXPECT_EQ(r.distance(path[k], dst),
                      r.distance(path[k + 1], dst) + 1);
    }
}

TEST(RoutingTest, DistanceBasics)
{
    Topology t = Topology::star(2, 1);  // core 0, leaves 1-2, hosts 3-4
    Router r(t);
    EXPECT_EQ(r.distance(3, 3), 0);
    EXPECT_EQ(r.distance(3, 1), 1);
    EXPECT_EQ(r.distance(3, 4), 4);  // host-leaf-core-leaf-host
}

TEST(RoutingTest, EcmpPickIsAPureFunction)
{
    EXPECT_EQ(Router::ecmpPick(7, 3, 5), Router::ecmpPick(7, 3, 5));
    EXPECT_LT(Router::ecmpPick(7, 3, 5), 5u);
    EXPECT_EQ(Router::ecmpPick(0, 0, 1), 0u);
    // The hash must actually discriminate flows and nodes.
    std::set<size_t> picks;
    for (FlowId f = 0; f < 64; ++f)
        picks.insert(Router::ecmpPick(f, 3, 8));
    EXPECT_EQ(picks.size(), 8u);
}

TEST(RoutingTest, EcmpDeterministicAcrossRouters)
{
    Topology t = Topology::fatTree(4, 1);
    Router r1(t);
    Router r2(t);
    std::vector<NodeId> hosts = t.hosts();
    for (FlowId f = 0; f < 32; ++f) {
        NodeId src = hosts[static_cast<size_t>(f) % hosts.size()];
        NodeId dst = hosts[(static_cast<size_t>(f) + 3) % hosts.size()];
        EXPECT_EQ(r1.path(src, dst, f), r2.path(src, dst, f));
    }
}

TEST(RoutingTest, EcmpSpreadsFlowsOverParallelPaths)
{
    // Hosts in different pods of a fat-tree have (k/2)^2 = 4 equal-cost
    // paths; distinct flows should not all collapse onto one.
    Topology t = Topology::fatTree(4, 1);
    Router r(t);
    std::vector<NodeId> hosts = t.hosts();
    NodeId src = hosts.front();
    NodeId dst = hosts.back();
    std::set<std::vector<NodeId>> paths;
    for (FlowId f = 0; f < 64; ++f)
        paths.insert(r.path(src, dst, f));
    EXPECT_GT(paths.size(), 1u);
    for (const auto& p : paths)
        EXPECT_EQ(static_cast<int>(p.size()) - 1, r.distance(src, dst));
}

TEST(RoutingTest, DeadEdgeReroutesDeterministically)
{
    Topology t = Topology::fatTree(4, 1);
    Router r(t);
    std::vector<NodeId> hosts = t.hosts();
    NodeId src = hosts.front();
    NodeId dst = hosts.back();
    const FlowId flow = 11;
    std::vector<NodeId> before = r.path(src, dst, flow);

    // Kill the first trunk hop (edge switch -> aggregation) in the
    // forward direction only.
    NodeId u = before[1];
    NodeId v = before[2];
    int dead = -1;
    bool a_to_b = true;
    for (const Neighbor& nb : t.neighbors(u))
        if (nb.node == v) {
            dead = nb.edge;
            a_to_b = t.edge(nb.edge).a == u;
        }
    ASSERT_GE(dead, 0);
    r.setEdgeDirAlive(dead, a_to_b, false);
    EXPECT_FALSE(r.edgeDirAlive(dead, a_to_b));
    EXPECT_TRUE(r.edgeDirAlive(dead, !a_to_b));

    std::vector<NodeId> after = r.path(src, dst, flow);
    expectValidPath(t, after, src, dst);
    for (size_t k = 0; k + 1 < after.size(); ++k)
        EXPECT_FALSE(after[k] == u && after[k + 1] == v);
    // Plenty of equal-cost alternatives exist, so the reroute keeps the
    // hop count, and a second router with the same dead edge agrees.
    EXPECT_EQ(after.size(), before.size());
    Router r2(t);
    r2.setEdgeDirAlive(dead, a_to_b, false);
    EXPECT_EQ(r2.path(src, dst, flow), after);

    // Reviving restores the original choice (pure function of state).
    r.setEdgeDirAlive(dead, a_to_b, true);
    EXPECT_EQ(r.path(src, dst, flow), before);
}

TEST(RoutingTest, RevivalStormKeepsCachedFieldsFresh)
{
    // Regression: the per-destination distance fields are cached
    // against the router's liveness epoch. A kill -> revive -> kill of
    // the same link in quick succession (a flapping trunk inside one
    // metrics window) must invalidate the cache at every step — a stale
    // field from the first kill would hand out a next-hop across the
    // edge that just died again.
    Topology t = Topology::fatTree(4, 1);
    Router r(t);
    std::vector<NodeId> hosts = t.hosts();
    NodeId src = hosts.front();
    NodeId dst = hosts.back();
    const FlowId flow = 11;
    std::vector<NodeId> healthy = r.path(src, dst, flow);

    NodeId u = healthy[1];
    NodeId v = healthy[2];
    int dead = -1;
    bool a_to_b = true;
    for (const Neighbor& nb : t.neighbors(u))
        if (nb.node == v) {
            dead = nb.edge;
            a_to_b = t.edge(nb.edge).a == u;
        }
    ASSERT_GE(dead, 0);

    // Storm: kill, query (caches fields for the dead state), revive,
    // query, kill again, query. After the second kill the router must
    // agree with a fresh router built directly in the dead state.
    r.setEdgeDirAlive(dead, a_to_b, false);
    std::vector<NodeId> dead1 = r.path(src, dst, flow);
    expectValidPath(t, dead1, src, dst);
    for (size_t k = 0; k + 1 < dead1.size(); ++k)
        EXPECT_FALSE(dead1[k] == u && dead1[k + 1] == v);

    r.setEdgeDirAlive(dead, a_to_b, true);
    EXPECT_EQ(r.path(src, dst, flow), healthy);

    r.setEdgeDirAlive(dead, a_to_b, false);
    std::vector<NodeId> dead2 = r.path(src, dst, flow);
    EXPECT_EQ(dead2, dead1);
    for (size_t k = 0; k + 1 < dead2.size(); ++k)
        EXPECT_FALSE(dead2[k] == u && dead2[k + 1] == v);

    Router fresh(t);
    fresh.setEdgeDirAlive(dead, a_to_b, false);
    EXPECT_EQ(fresh.path(src, dst, flow), dead2);
    for (NodeId n : t.hosts())
        EXPECT_EQ(fresh.distance(n, dst), r.distance(n, dst)) << n;

    // Idempotent re-kill of an already-dead edge must not disturb the
    // cached fields (no epoch bump, same answers).
    r.setEdgeDirAlive(dead, a_to_b, false);
    EXPECT_EQ(r.path(src, dst, flow), dead2);
}

TEST(RoutingTest, UnreachableIsEmptyNotFatal)
{
    Topology t = Topology::star(2, 1);  // hosts 3 (leaf 1), 4 (leaf 2)
    Router r(t);
    // Sever the host 4 attachment in both directions.
    int e = t.neighbors(4)[0].edge;
    r.setEdgeDirAlive(e, true, false);
    r.setEdgeDirAlive(e, false, false);
    EXPECT_EQ(r.distance(3, 4), -1);
    EXPECT_TRUE(r.path(3, 4, 0).empty());
    EXPECT_THROW(r.path(3, 3, 0), UsageError);  // src == dst
}

TEST(RoutingTest, UnknownNodesThrow)
{
    Topology t = Topology::star(2, 1);  // nodes 0-4
    Router r(t);
    std::vector<Neighbor> hops;
    for (NodeId bad : {-1, 5}) {
        EXPECT_THROW(r.distance(bad, 3), UsageError) << bad;
        EXPECT_THROW(r.distance(3, bad), UsageError) << bad;
        EXPECT_THROW(r.nextHops(bad, 3, hops), UsageError) << bad;
        EXPECT_THROW(r.nextHops(3, bad, hops), UsageError) << bad;
    }
}

// ---- Router against NaiveRouter ------------------------------------------

namespace {

/** Core 0, leaf switches 1-3; hosts 4-5 on leaf 1 and 6 on leaf 2. Leaf
    3 has no hosts, so it is a switch attached like a host. */
Topology
starWithBareLeaf()
{
    Topology t("star-bare-leaf");
    Latencies lat;
    NodeId core = t.addNode(NodeKind::Switch);
    std::vector<NodeId> leaves;
    for (int l = 0; l < 3; ++l) {
        leaves.push_back(t.addNode(NodeKind::Switch));
        t.link(core, leaves.back(), lat.trunk_ps);
    }
    for (NodeId leaf : {leaves[0], leaves[0], leaves[1]})
        t.link(leaf, t.addNode(NodeKind::Host), lat.host_ps);
    return t;
}

/** Hosts 0 and 3 at the ends of switches 1-2. */
Topology
twoHostLine()
{
    Topology t("line");
    Latencies lat;
    NodeId h0 = t.addNode(NodeKind::Host);
    NodeId s1 = t.addNode(NodeKind::Switch);
    NodeId s2 = t.addNode(NodeKind::Switch);
    NodeId h3 = t.addNode(NodeKind::Host);
    t.link(h0, s1, lat.host_ps);
    t.link(s1, s2, lat.trunk_ps);
    t.link(s2, h3, lat.host_ps);
    return t;
}

/** Two hosts on one edge: neither end has a neighbor with a second
    edge, so neither is attached. */
Topology
hostPair()
{
    Topology t("host-pair");
    NodeId a = t.addNode(NodeKind::Host);
    NodeId b = t.addNode(NodeKind::Host);
    t.link(a, b, Latencies{}.host_ps);
    return t;
}

/** Counts the disagreements of one query kind and reports the first
    few, so that a broken router fails with a readable log. */
class Disagreements
{
  public:
    explicit Disagreements(const char* what) : what_(what) {}

    ~Disagreements()
    {
        EXPECT_EQ(count_, 0) << count_ << " " << what_ << " disagreements";
    }

    void check(bool equal, const std::function<void(std::ostream&)>& where)
    {
        if (equal)
            return;
        if (++count_ <= 3) {
            std::ostringstream text;
            where(text);
            ADD_FAILURE() << what_ << " differs at " << text.str();
        }
    }

  private:
    const char* what_;
    int count_ = 0;
};

void
printHops(std::ostream& os, const std::vector<Neighbor>& hops)
{
    os << "[";
    for (const Neighbor& nb : hops)
        os << " " << nb.node << "/e" << nb.edge;
    os << " ]";
}

/** Every distance, every next-hop list and `flows` random paths of the
    two routers must agree. */
void
expectRoutersAgree(const Topology& t, const Router& lib,
                   const NaiveRouter& oracle, Rng& rng, int flows)
{
    const int n = t.numNodes();
    {
        Disagreements bad("distance");
        for (NodeId from = 0; from < n; ++from)
            for (NodeId dst = 0; dst < n; ++dst) {
                int got = lib.distance(from, dst);
                int want = oracle.distance(from, dst);
                bad.check(got == want, [&](std::ostream& os) {
                    os << "(" << from << ", " << dst << "): " << got
                       << " vs " << want;
                });
            }
    }
    {
        Disagreements bad("nextHops");
        std::vector<Neighbor> got;
        std::vector<Neighbor> want;
        for (NodeId at = 0; at < n; ++at)
            for (NodeId dst = 0; dst < n; ++dst) {
                lib.nextHops(at, dst, got);
                oracle.nextHops(at, dst, want);
                bool equal = got.size() == want.size();
                for (size_t k = 0; equal && k < got.size(); ++k)
                    equal = got[k].node == want[k].node &&
                            got[k].edge == want[k].edge;
                bad.check(equal, [&](std::ostream& os) {
                    os << "(" << at << ", " << dst << "): ";
                    printHops(os, got);
                    os << " vs ";
                    printHops(os, want);
                });
            }
    }
    Disagreements bad("path");
    for (int f = 0; f < flows; ++f) {
        auto src = static_cast<NodeId>(rng.nextBelow(static_cast<uint64_t>(n)));
        auto dst = static_cast<NodeId>(
            rng.nextBelow(static_cast<uint64_t>(n - 1)));
        if (dst >= src)
            ++dst;
        auto flow = static_cast<FlowId>(rng.nextBelow(1u << 20));
        bad.check(lib.path(src, dst, flow) == oracle.path(src, dst, flow),
                  [&](std::ostream& os) {
                      os << "flow " << flow << " " << src << " -> " << dst;
                  });
    }
}

void
setBoth(Router& lib, NaiveRouter& oracle, int e, bool a_to_b, bool alive)
{
    lib.setEdgeDirAlive(e, a_to_b, alive);
    oracle.setEdgeDirAlive(e, a_to_b, alive);
}

/**
 * Run `rounds` query rounds over `t`. Between rounds, set random edge
 * directions dead or alive (about one in eight edges), and set one
 * random host's attachment edge dead or alive in one direction or both.
 */
void
runEquivalence(const Topology& t, uint64_t seed, int rounds = 5)
{
    SCOPED_TRACE(t.name());
    Router lib(t);
    NaiveRouter oracle(t);
    Xoshiro256 rng(seed);
    const std::vector<NodeId> hosts = t.hosts();
    const int edges = t.numEdges();
    for (int round = 0; round < rounds; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        if (round > 0) {
            int flips = std::max(2, edges / 8);
            for (int k = 0; k < flips; ++k) {
                auto e = static_cast<int>(
                    rng.nextBelow(static_cast<uint64_t>(edges)));
                setBoth(lib, oracle, e, rng.nextBernoulli(0.5),
                        rng.nextBernoulli(0.5));
            }
            if (!hosts.empty()) {
                NodeId h = hosts[rng.nextBelow(hosts.size())];
                int e = t.neighbors(h)[0].edge;
                bool alive = rng.nextBernoulli(0.5);
                switch (rng.nextBelow(3)) {
                case 0:
                    setBoth(lib, oracle, e, true, alive);
                    break;
                case 1:
                    setBoth(lib, oracle, e, false, alive);
                    break;
                default:
                    setBoth(lib, oracle, e, true, alive);
                    setBoth(lib, oracle, e, false, alive);
                }
            }
        }
        expectRoutersAgree(t, lib, oracle, rng, 200);
    }
}

}  // namespace

TEST(RouterEquivalence, Star)
{
    runEquivalence(Topology::star(4, 3), 1);
}

TEST(RouterEquivalence, StarWithHostlessLeaf)
{
    Topology t = starWithBareLeaf();
    // The bare leaf is routed to like a host, and so is a dead end.
    Router r(t);
    EXPECT_EQ(r.distance(4, 3), 3);  // host-leaf-core-leaf
    std::vector<Neighbor> hops;
    r.nextHops(0, 3, hops);
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_EQ(hops[0].node, 3);
    runEquivalence(t, 2, 8);
}

TEST(RouterEquivalence, FatTreeSmall)
{
    runEquivalence(Topology::fatTree(4, 2), 3);
}

TEST(RouterEquivalence, FatTreeK8)
{
    runEquivalence(Topology::fatTree(8, 8), 4);
}

TEST(RouterEquivalence, MeshAndTorus)
{
    runEquivalence(Topology::mesh(3, 4, false, 2), 5);
    runEquivalence(Topology::mesh(3, 4, true, 2), 6);
}

TEST(RouterEquivalence, Ring)
{
    runEquivalence(Topology::ring(6, 2), 7);
}

TEST(RouterEquivalence, RandomRegular)
{
    runEquivalence(Topology::randomRegular(12, 3, 2, 99), 8);
}

TEST(RouterEquivalence, TwoHostLines)
{
    runEquivalence(twoHostLine(), 9, 12);
    runEquivalence(hostPair(), 10, 12);
}

TEST(RouterEquivalence, EveryHostAttachmentDirection)
{
    // Each direction of each host's one edge, dead alone and with its
    // reverse, on a fat-tree whose hosts share edge switches.
    Topology t = Topology::fatTree(4, 2);
    Router lib(t);
    NaiveRouter oracle(t);
    Xoshiro256 rng(11);
    for (NodeId h : t.hosts()) {
        int e = t.neighbors(h)[0].edge;
        for (int dead = 1; dead <= 3; ++dead) {
            SCOPED_TRACE(::testing::Message()
                         << "host " << h << " dead " << dead);
            setBoth(lib, oracle, e, true, (dead & 1) == 0);
            setBoth(lib, oracle, e, false, (dead & 2) == 0);
            expectRoutersAgree(t, lib, oracle, rng, 20);
        }
        setBoth(lib, oracle, e, true, true);
        setBoth(lib, oracle, e, false, true);
    }
}
