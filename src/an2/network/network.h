/**
 * @file
 * The arbitrary-topology network simulator: switches and host controllers
 * on independently drifting clocks, joined by point-to-point links, with
 * flow-based routing and end-to-end CBR admission (paper §2, §4, App. B).
 *
 * One event loop runs every network, on one shard or several. It rests
 * on the bound the paper's link latency l gives: l is never zero (it
 * includes the per-cell switch overhead), so a cell sent at wall time t
 * arrives no earlier than t + W, where W is the smallest link latency.
 * No node can affect another inside a window shorter than W. run()
 * therefore takes the earliest pending tick m, closes the window
 * E = min(until, m + W - 1), and ticks every node through E, one node
 * after another; no cell sent inside the window can arrive inside it.
 *
 * Two ticks of different nodes in one window are causally independent,
 * and each node's own ticks keep their time order, so every node's tick
 * sequence, every link's cell sequence and every statistic is the same
 * as under a global (time, node) order: the naive one-tick-at-a-time
 * scan (the oracle in tests/network_test.cc) and any shard count give
 * identical results.
 *
 * With several shards, nodes are dealt round-robin to a thread pool.
 * Each shard ticks its own nodes through the window with no
 * synchronization; sends are staged on the sending node's out-links
 * (NetLink deferred mode) and committed at the window's barrier. With
 * one shard no thread starts and links stay in immediate mode.
 *
 * Faults: link up/down events are applied between run() calls
 * (topo::Lan splits its runs at event times); link state never changes
 * inside a window.
 */
#ifndef AN2_NETWORK_NETWORK_H
#define AN2_NETWORK_NETWORK_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "an2/base/types.h"
#include "an2/cbr/admission.h"
#include "an2/matching/matcher.h"
#include "an2/network/controller.h"
#include "an2/network/net_switch.h"

namespace an2 {

/** Network-wide parameters. */
struct NetworkConfig
{
    /** Nominal slot duration (wall picoseconds). */
    PicoTime slot_ps = kSlotPicosAt1Gbps;

    /** Switch frame length in slots. */
    int switch_frame_slots = 100;

    /**
     * Padding slots appended to every controller frame; must satisfy
     * F_c-min > F_s-max for the worst clock pairing (see
     * minControllerPadding() in an2/cbr/timing.h).
     */
    int controller_padding = 2;
};

/** A network of switches and controllers under simulation. */
class Network
{
  public:
    explicit Network(const NetworkConfig& config);

    /**
     * Add a switch.
     * @param n_ports Port count.
     * @param clock_rate_error Fractional clock error (e.g. +1e-4 = fast).
     * @param vbr_matcher Datagram scheduler for this switch (owned).
     * @param phase_ps Wall time of the switch's slot 0.
     * @param fifo_merge Merge all VBR flows of an (input, output) pair
     *        into one FIFO (Figure 9 discipline) instead of per-flow
     *        queues with round-robin service.
     */
    NodeId addSwitch(int n_ports, double clock_rate_error,
                     std::unique_ptr<Matcher> vbr_matcher,
                     PicoTime phase_ps = 0, bool fifo_merge = false);

    /**
     * Add a host controller (single full-duplex port).
     * @param clock_rate_error Fractional clock error.
     * @param seed PRNG seed for VBR injection.
     * @param phase_ps Wall time of the controller's slot 0.
     */
    NodeId addController(double clock_rate_error, uint64_t seed,
                         PicoTime phase_ps = 0);

    /**
     * Create a directed link from `from`'s output port to `to`'s input
     * port. Controller ports must be 0; fatal when either port is
     * already connected or `latency_ps` is not positive.
     * @return the link index (dense, in connect order; also the
     *         admission-control LinkId and the FaultPlan link target).
     */
    int connect(NodeId from, PortId from_port, NodeId to, PortId to_port,
                PicoTime latency_ps);

    /**
     * Reserve and route a CBR flow of k cells/frame along `path`
     * (controller, switches..., controller). Consecutive nodes must be
     * joined by exactly one link in path direction.
     * @return the flow id, or kNoFlow if some link lacks capacity.
     */
    FlowId addCbrFlow(const std::vector<NodeId>& path, int cells_per_frame);

    /** Route a VBR flow injecting at `rate` cells/slot along `path`. */
    FlowId addVbrFlow(const std::vector<NodeId>& path, double rate);

    /**
     * Take the unique link from `from` to `to` down or up. Downing a
     * link loses its in-flight cells (see NetLink::setUp); fatal if no
     * such link exists.
     */
    void setLinkUp(NodeId from, NodeId to, bool up);

    /** The unique link from `from` to `to` (state inspection). */
    const NetLink& linkBetween(NodeId from, NodeId to) const;

    /**
     * Tick every node through all its ticks at wall time <= `until_ps`,
     * in conservative windows (see the file comment), on `threads`
     * shards (>= 1; clamped to the node count). Results are identical
     * for every shard count. May be called repeatedly, with nodes and
     * links added in between: the partition and the window width are
     * worked out on each call.
     *
     * Costs O(nodes + links) on entry, then O(nodes) per window on top
     * of the ticks, plus, with several shards, two barriers and one
     * commit per link with staged cells. A one-shard run starts no
     * thread and stages no send.
     */
    void run(PicoTime until_ps, int threads = 1);

    /** Run approximately `frames` switch frames of nominal wall time. */
    void runFrames(int64_t frames, int threads = 1);

    /** Conservative windows executed so far, over every run() call. */
    int64_t windows() const { return windows_; }

    /** Typed node access. */
    Controller& controller(NodeId id);
    const Controller& controller(NodeId id) const;
    NetSwitch& netSwitch(NodeId id);
    const NetSwitch& netSwitch(NodeId id) const;

    // ---- state access (the topo and fault layers, tests) ------------

    /** Number of nodes. */
    int numNodes() const { return static_cast<int>(nodes_.size()); }

    /** Number of directed links. */
    int numLinks() const { return static_cast<int>(edges_.size()); }

    /** True when node `id` is a switch (else a controller). */
    bool isSwitchNode(NodeId id) const
    {
        return is_switch_[static_cast<size_t>(id)];
    }

    /** Untyped node access (tests tick nodes one at a time). */
    NetNode& nodeAt(NodeId id) { return node(id); }

    /** Link access by dense link index. */
    NetLink& linkAt(int link);
    const NetLink& linkAt(int link) const;

    /** Endpoints and ports of a link, by dense link index. */
    struct LinkEnds
    {
        NodeId from;
        PortId from_port;
        NodeId to;
        PortId to_port;
    };
    LinkEnds linkEnds(int link) const;

    /**
     * Index of the unique link from `from` to `to`, or -1 when absent;
     * fatal when multiple parallel links make the pair ambiguous. O(1)
     * via the (from, to) hash index.
     */
    int linkIndexBetween(NodeId from, NodeId to) const;

    /** Take a link up or down by dense index (fault-plan targets). */
    void setLinkUpByIndex(int link, bool up);

    /** The id the next successfully admitted flow will get (the topo
        layer hashes it for ECMP before creating the flow). */
    FlowId nextFlowId() const { return next_flow_; }

    /** The CBR admission database. Mutable access exists for the path
        restorer, which releases and re-admits reservations as topology
        dies and revives; everything else should treat it as read-only. */
    AdmissionController& admission() { return admission_; }
    const AdmissionController& admission() const { return admission_; }

    const NetworkConfig& config() const { return config_; }

    /** Controller frame length (switch frame + padding). */
    int controllerFrameSlots() const
    {
        return config_.switch_frame_slots + config_.controller_padding;
    }

  private:
    struct Edge
    {
        NodeId from;
        PortId from_port;
        NodeId to;
        PortId to_port;
        std::unique_ptr<NetLink> link;
    };

    /** Tick nodes k, k + shards, k + 2 shards, ... through `end`;
        returns the earliest next tick among them. */
    PicoTime tickShard(int k, int shards, PicoTime end);

    /** run() on one shard, from the earliest pending tick `m`: inline,
        links in immediate mode. */
    void runOneShard(PicoTime until_ps, PicoTime width, PicoTime m);

    /** run() on `shards` > 1 threads, from the earliest pending tick
        `m`: deferred links committed at each window's barrier. */
    void runSharded(PicoTime until_ps, PicoTime width, PicoTime m,
                    int shards);

    /** Index of the unique edge from `from` to `to`; fatal if absent. */
    int findEdge(NodeId from, NodeId to) const;

    NetNode& node(NodeId id);

    /** Hash key of a directed (from, to) node pair. */
    static uint64_t edgeKey(NodeId from, NodeId to)
    {
        return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
               static_cast<uint32_t>(to);
    }

    /** edge_index_ value marking parallel links between the same pair. */
    static constexpr int kAmbiguousEdge = -2;

    NetworkConfig config_;
    std::vector<std::unique_ptr<NetNode>> nodes_;
    std::vector<bool> is_switch_;
    std::vector<Edge> edges_;
    /** (from, to) -> edge index; fault sweeps over large topologies hit
        this on every event, so lookups are O(1), not a scan. */
    std::unordered_map<uint64_t, int> edge_index_;
    AdmissionController admission_;
    FlowId next_flow_ = 0;
    int64_t windows_ = 0;
};

}  // namespace an2

#endif  // AN2_NETWORK_NETWORK_H
