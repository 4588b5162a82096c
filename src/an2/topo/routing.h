/**
 * @file
 * Shortest-path routing with deterministic ECMP over a Topology.
 *
 * The Router computes BFS distance fields over the *live* directed
 * edges (each full-duplex topology edge is two directed half-edges that
 * fail independently, matching the Network's directed links). At any
 * node, the next hops toward a destination are the neighbors one hop
 * closer, in adjacency order; when several are equally close (ECMP),
 * the choice is a pure function of (flow, node) — a splitmix64 hash —
 * so a flow's path is stable across runs, thread counts, and machines,
 * and distinct flows spread over the parallel paths.
 *
 * Attachments: a node with exactly one edge, whose neighbor has more
 * than one, is *attached* to that neighbor — every host, and a leaf
 * switch with no hosts. Every route to an attached node ends with its
 * one edge, so its distance field is its neighbor's plus one hop, and
 * the Router answers queries toward it from the neighbor's field
 * instead of keeping a field of its own. Fields are therefore rooted
 * only at non-leaf nodes (the switches with two or more edges; and,
 * degenerately, an isolated node or the two ends of a lone edge), and
 * the cache grows as non-leaf roots x nodes, not hosts x nodes: routes
 * between the hosts of a k=8 fat-tree with 8 hosts per edge switch fill
 * 32 fields of 336 entries, one per edge switch.
 *
 * Fault model: setEdgeDirAlive marks a directed half-edge dead, which
 * removes it from every distance field (caches invalidate). Flows
 * re-pathed after a failure pick deterministically among the surviving
 * candidates — the "next ECMP path" failover used by Lan.
 */
#ifndef AN2_TOPO_ROUTING_H
#define AN2_TOPO_ROUTING_H

#include <cstdint>
#include <vector>

#include "an2/topo/topology.h"

namespace an2::topo {

/** Deterministic shortest-path / ECMP router over a Topology. */
class Router
{
  public:
    explicit Router(const Topology& topo);

    const Topology& topology() const { return topo_; }

    /**
     * Mark the directed half of edge `e` alive or dead. `a_to_b` selects
     * the direction from edge(e).a to edge(e).b. Invalidate all cached
     * distance fields on change.
     */
    void setEdgeDirAlive(int e, bool a_to_b, bool alive);

    bool edgeDirAlive(int e, bool a_to_b) const;

    /**
     * Hop count from `from` to `dst` over live edges; -1 unreachable.
     * Toward an attached `dst`: 0 at `dst`, -1 when its neighbor's edge
     * into it is dead, else the distance to the neighbor plus one.
     */
    int distance(NodeId from, NodeId dst) const;

    /**
     * Next-hop candidates at `at` toward `dst`: live out-neighbors one
     * hop closer, in adjacency order. Empty when `dst` is unreachable
     * (or at == dst). Toward an attached `dst`, the candidates at its
     * neighbor are its one edge, and elsewhere they are the candidates
     * toward the neighbor.
     */
    void nextHops(NodeId at, NodeId dst, std::vector<Neighbor>& out) const;

    /**
     * The deterministic ECMP pick for `flow` at `at` among `n`
     * candidates: splitmix64(flow, at) mod n. Exposed for tests.
     */
    static size_t ecmpPick(FlowId flow, NodeId at, size_t n);

    /**
     * Full node path from `src` to `dst` for `flow` (endpoints
     * included), choosing the ECMP candidate at every node. Empty when
     * unreachable.
     */
    std::vector<NodeId> path(NodeId src, NodeId dst, FlowId flow) const;

  private:
    /** The distance field toward unattached `root`, computing it if
        stale. */
    const std::vector<int32_t>& distField(NodeId root) const;

    /** True when edge `e`'s direction out of its endpoint `from` is
        alive. */
    bool liveFrom(int e, NodeId from) const;

    const Topology& topo_;
    /** Bit 2e = edge e direction a->b alive; bit 2e+1 = b->a. */
    std::vector<uint64_t> dir_alive_;
    /** Liveness generation; bumping it invalidates every cached field. */
    uint64_t epoch_ = 1;
    /** [node]: an attached node's one neighbor and edge; node -1 when
        the node is not attached. */
    std::vector<Neighbor> attach_;

    // Per-root BFS caches (lazy; mutable because routing queries are
    // logically const). Only unattached roots are ever filled.
    mutable std::vector<std::vector<int32_t>> dist_;   ///< [root][node]
    mutable std::vector<uint64_t> dist_epoch_;         ///< [root]
    mutable std::vector<NodeId> bfs_queue_;
};

}  // namespace an2::topo

#endif  // AN2_TOPO_ROUTING_H
