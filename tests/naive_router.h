/**
 * @file
 * The per-destination BFS router, kept as the test oracle for
 * an2/topo/routing's Router.
 *
 * NaiveRouter keeps one distance field per destination, hosts included,
 * each a BFS over the live directed edges rooted at the destination
 * itself. The library's Router answers queries toward an attached node
 * (one edge, to a neighbor with more) from the neighbor's field instead;
 * for the same liveness both must report the same distances, the same
 * next hops in the same order, and so the same ECMP paths. The
 * differential tests in routing_test hold them to that.
 */
#ifndef AN2_TESTS_NAIVE_ROUTER_H
#define AN2_TESTS_NAIVE_ROUTER_H

#include <cstdint>
#include <vector>

#include "an2/topo/topology.h"

namespace an2::topo {

/** Shortest-path / ECMP router with one BFS field per destination. */
class NaiveRouter
{
  public:
    explicit NaiveRouter(const Topology& topo);

    /** Mark the directed half of edge `e` (a->b when `a_to_b`) alive or
        dead; cached fields invalidate on change. */
    void setEdgeDirAlive(int e, bool a_to_b, bool alive);

    bool edgeDirAlive(int e, bool a_to_b) const;

    /** Hop count from `from` to `dst` over live edges; -1 unreachable. */
    int distance(NodeId from, NodeId dst) const;

    /** Live out-neighbors of `at` one hop closer to `dst`, in adjacency
        order; empty when `dst` is unreachable or at == dst. */
    void nextHops(NodeId at, NodeId dst, std::vector<Neighbor>& out) const;

    /** splitmix64(flow, at) mod n. */
    static size_t ecmpPick(FlowId flow, NodeId at, size_t n);

    /** Node path from `src` to `dst` for `flow`, endpoints included;
        empty when unreachable. */
    std::vector<NodeId> path(NodeId src, NodeId dst, FlowId flow) const;

  private:
    /** The distance field toward `dst`, computing it if stale. */
    const std::vector<int32_t>& distField(NodeId dst) const;

    const Topology& topo_;
    /** Bit 2e = edge e direction a->b alive; bit 2e+1 = b->a. */
    std::vector<uint64_t> dir_alive_;
    /** Liveness generation; bumping it invalidates every cached field. */
    uint64_t epoch_ = 1;

    mutable std::vector<std::vector<int32_t>> dist_;  ///< [dst][node]
    mutable std::vector<uint64_t> dist_epoch_;        ///< [dst]
    mutable std::vector<NodeId> bfs_queue_;
};

}  // namespace an2::topo

#endif  // AN2_TESTS_NAIVE_ROUTER_H
