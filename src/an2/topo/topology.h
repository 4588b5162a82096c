/**
 * @file
 * LAN-scale topology descriptions for the drifting-clock network.
 *
 * A Topology is a pure graph: hosts and switches joined by full-duplex
 * edges with per-edge latency. It knows nothing about matchers, clocks,
 * or flows — the Lan builder (an2/topo/lan.h) instantiates a Network
 * from it, assigning switch ports in adjacency order, and the Router
 * (an2/topo/routing.h) computes shortest paths over it.
 *
 * Generators cover the shapes the paper's setting implies (AN2 was built
 * to be the switching fabric of a campus LAN, §1-§2): a star-of-stars
 * campus backbone, a k-ary fat-tree, 2-D mesh/torus, a ring, and a
 * seeded random d-regular graph for stress tests. Every generator is
 * deterministic: the same parameters (and seed, where one applies)
 * produce the identical node and edge ordering.
 */
#ifndef AN2_TOPO_TOPOLOGY_H
#define AN2_TOPO_TOPOLOGY_H

#include <cstdint>
#include <string>
#include <vector>

#include "an2/base/types.h"
#include "an2/network/link.h"

namespace an2::topo {

/** What a topology node is instantiated as in the Network. */
enum class NodeKind : uint8_t {
    Host,    ///< a Controller (traffic source/sink, single port)
    Switch,  ///< a NetSwitch (ports = node degree)
};

/** One full-duplex edge: two directed Network links at build time. */
struct TopoEdge
{
    NodeId a = -1;
    NodeId b = -1;
    PicoTime latency_ps = 0;
};

/** Adjacency entry: the neighbor and the edge reaching it. */
struct Neighbor
{
    NodeId node = -1;
    int edge = -1;
};

/** Edge latencies used by the generators. */
struct Latencies
{
    /** Host-to-switch edges (~100 m of fiber). */
    PicoTime host_ps = 500'000;

    /** Switch-to-switch trunk edges (~400 m). */
    PicoTime trunk_ps = 2'000'000;
};

/** An undirected host/switch graph with per-edge latencies. */
class Topology
{
  public:
    explicit Topology(std::string name) : name_(std::move(name)) {}

    /** Append a node; ids are dense in insertion order. */
    NodeId addNode(NodeKind kind);

    /**
     * Join `a` and `b` with a full-duplex edge (positive latency; the
     * network engine's window width is the minimum over all edges).
     * Hosts take exactly one edge. Self-edges and duplicate (a, b)
     * pairs are fatal.
     * @return the edge index (dense, in insertion order).
     */
    int link(NodeId a, NodeId b, PicoTime latency_ps);

    const std::string& name() const { return name_; }
    int numNodes() const { return static_cast<int>(kind_.size()); }
    int numHosts() const { return n_hosts_; }
    int numSwitches() const { return numNodes() - n_hosts_; }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    NodeKind kind(NodeId n) const;
    bool isHost(NodeId n) const { return kind(n) == NodeKind::Host; }

    const TopoEdge& edge(int e) const;

    /** Node degree = switch port count at build time. */
    int degree(NodeId n) const
    {
        return static_cast<int>(neighbors(n).size());
    }

    /** Adjacency of `n`, in edge-insertion order (the ECMP tie-break
        order and the port-assignment order). */
    const std::vector<Neighbor>& neighbors(NodeId n) const;

    /** Ids of all host nodes, ascending. */
    std::vector<NodeId> hosts() const;

    /** The switch a host hangs off (its single neighbor). */
    NodeId hostSwitch(NodeId host) const;

    /** Smallest edge latency; fatal when there are no edges. */
    PicoTime minLatency() const;

    // ---- generators ---------------------------------------------------

    /**
     * Campus star-of-stars: one core switch, `leaves` building switches
     * on trunk edges, `hosts_per_leaf` hosts per building.
     */
    static Topology star(int leaves, int hosts_per_leaf,
                         Latencies lat = {});

    /**
     * k-ary fat-tree (k even): (k/2)^2 core switches, k pods of k/2
     * aggregation + k/2 edge switches, `hosts_per_edge` hosts per edge
     * switch. `hosts_per_edge` = k/2 gives full bisection bandwidth;
     * larger values oversubscribe the edge layer.
     */
    static Topology fatTree(int k, int hosts_per_edge, Latencies lat = {});

    /**
     * rows x cols 2-D mesh of switches, `hosts_per_switch` hosts each;
     * `torus` adds the wraparound edges (requires rows, cols >= 3 so no
     * wraparound duplicates a mesh edge).
     */
    static Topology mesh(int rows, int cols, bool torus,
                         int hosts_per_switch, Latencies lat = {});

    /** `switches` >= 3 switches in a cycle, `hosts_per_switch` each. */
    static Topology ring(int switches, int hosts_per_switch,
                         Latencies lat = {});

    /**
     * Random d-regular graph over `switches` switches (pairing model,
     * resampled until simple), `hosts_per_switch` hosts each. Requires
     * d < switches and d * switches even. Deterministic in `seed`.
     */
    static Topology randomRegular(int switches, int degree,
                                  int hosts_per_switch, uint64_t seed,
                                  Latencies lat = {});

  private:
    void checkNode(NodeId n) const;

    std::string name_;
    std::vector<NodeKind> kind_;
    std::vector<TopoEdge> edges_;
    std::vector<std::vector<Neighbor>> adj_;
    int n_hosts_ = 0;
};

}  // namespace an2::topo

#endif  // AN2_TOPO_TOPOLOGY_H
