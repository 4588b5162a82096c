/**
 * @file
 * The Lan builder: instantiate a Network from a Topology and drive it
 * by *endpoints* instead of explicit paths.
 *
 * Lan owns the mapping between the abstract graph and the simulator:
 * hosts become Controllers, switches become NetSwitches with one port
 * per adjacent edge, and every topology edge becomes two directed
 * NetLinks. Flows are placed by (source host, destination host); the
 * Router picks the shortest path with deterministic ECMP tie-breaking,
 * so a flow's route is a pure function of the topology and its flow id.
 *
 * Traffic matrices place whole workloads in one call (uniform random
 * destinations, hotspot, client-server), seeded independently of the
 * node clocks so the same matrix lands on any topology deterministically.
 *
 * Faults: scheduleFaults() takes a fault::FaultPlan whose link events
 * target *network link indices* (see netLinkIndex). run() splits the
 * simulation at each event's nominal wall time, applies the event to
 * both the Network and the Router, and re-paths every VBR flow whose
 * current route crosses a dead link onto its next live ECMP path
 * (deterministic failover). CBR flows stay pinned — their frame-schedule
 * reservations cannot move without re-admission — and simply lose cells
 * while the link is down, exactly like the paper's reserved traffic.
 * Links that come back up are used by newly (re)routed flows only; no
 * flow moves back automatically.
 *
 * run(until, threads) drives the Network's window loop on `threads`
 * shards; results are byte-identical for every shard count, fault plans
 * included.
 */
#ifndef AN2_TOPO_LAN_H
#define AN2_TOPO_LAN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "an2/fault/fault_plan.h"
#include "an2/network/network.h"
#include "an2/topo/routing.h"
#include "an2/topo/topology.h"

namespace an2::fault {
class PathRestorer;
struct RestorePolicy;
}  // namespace an2::fault

namespace an2::topo {

/** Everything Lan needs beyond the graph itself. */
struct LanConfig
{
    /** Slot duration, frame length, controller padding. */
    NetworkConfig net;

    /** Per-node clock rate errors are drawn uniformly from
        [-max_clock_error, +max_clock_error] (seeded; 0 = synchronous). */
    double max_clock_error = 1e-4;

    /** Give each node a random slot-phase offset in [0, slot_ps). */
    bool phase_jitter = true;

    /** Seed for clock errors, phases, and controller VBR injection. */
    uint64_t seed = 1;

    /**
     * VBR matcher factory, called once per switch with its port count
     * and a per-switch seed. Required.
     */
    std::function<std::unique_ptr<Matcher>(int n_ports, uint64_t seed)>
        matcher;
};

/** Which hosts talk to which in a bulk traffic placement. */
enum class Pattern {
    Uniform,       ///< every host sends to one uniformly random other host
    Hotspot,       ///< a fraction of hosts all send to one hot host
    ClientServer,  ///< clients send to servers round-robin; servers reply
};

/** What each placed flow carries. */
struct TrafficSpec
{
    TrafficClass cls = TrafficClass::VBR;
    double vbr_rate = 0.05;        ///< cells/slot for VBR flows
    int cbr_cells_per_frame = 1;   ///< reservation for CBR flows
};

/** Totals across every sink in the network (reporting). */
struct LanStats
{
    int64_t injected = 0;
    int64_t delivered = 0;
    int64_t order_violations = 0;
    int64_t link_lost = 0;       ///< cells lost on downed links
    int64_t vbr_dropped = 0;     ///< cells dropped by VBR buffer caps
    int64_t cbr_forwarded = 0;   ///< switch forwards, CBR
    int64_t vbr_forwarded = 0;   ///< switch forwards, VBR
    int64_t reroutes = 0;        ///< ECMP failovers applied
    int64_t unroutable = 0;      ///< flows left pathless by faults

    /** Delivery-weighted mean end-to-end latency, wall picoseconds. */
    double mean_wall_latency_ps = 0.0;

    /** Delivery-weighted mean Appendix B adjusted latency. */
    double mean_adjusted_latency_ps = 0.0;

    // Per-traffic-class splits of the injection/delivery/latency totals
    // (the telemetry pipeline reports CBR and VBR separately; the
    // paper's reservation argument is about exactly this split).
    int64_t cbr_injected = 0;
    int64_t vbr_injected = 0;
    int64_t cbr_delivered = 0;
    int64_t vbr_delivered = 0;
    double mean_cbr_wall_latency_ps = 0.0;
    double mean_vbr_wall_latency_ps = 0.0;

    // CBR path restoration (all zero unless enableRestoration() ran;
    // see fault::PathRestorer).
    int64_t cbr_restored = 0;         ///< episodes re-admitted at full rate
    int64_t cbr_degraded = 0;         ///< episodes re-admitted degraded
    int64_t cbr_abandoned = 0;        ///< episodes given up
    int64_t cbr_restore_retries = 0;  ///< re-admission attempts made
    int64_t cbr_restore_pending = 0;  ///< episodes still pending
    /** Cells shed during restoration: dropped at revoked routes plus
        queued cells purged by re-pathing. */
    int64_t restore_lost = 0;
    /** Reservation slots released downstream of dead links before any
        restoration ran (the immediate-revocation fix; nonzero only when
        no restorer is armed). */
    int64_t cbr_downstream_released = 0;
};

/** A Topology instantiated as a runnable Network. */
class Lan
{
  public:
    Lan(const Topology& topo, LanConfig config);
    ~Lan();  // out of line: fault::PathRestorer is forward-declared

    const Topology& topology() const { return topo_; }
    Network& net() { return net_; }
    const Network& net() const { return net_; }
    Router& router() { return router_; }

    /**
     * Reserve a CBR flow of k cells/frame from one host to another,
     * routed on the flow's ECMP shortest path.
     * @return the flow id, or kNoFlow when admission fails.
     */
    FlowId addCbrFlow(NodeId src_host, NodeId dst_host, int cells_per_frame);

    /** Route a VBR flow injecting at `rate` cells/slot between hosts. */
    FlowId addVbrFlow(NodeId src_host, NodeId dst_host, double rate);

    /**
     * Place a whole traffic matrix (seeded, deterministic): one flow
     * per sending host per the pattern. Hotspot sends `hot_fraction`
     * of hosts to one hot host; ClientServer uses the first `servers`
     * hosts as servers.
     * @return flows actually placed (CBR admission can refuse some).
     */
    int placeMatrix(Pattern pattern, const TrafficSpec& spec,
                    uint64_t seed, double hot_fraction = 0.25,
                    int servers = 4);

    /**
     * Register a fault plan. Only scripted link_down/link_up events are
     * meaningful in a network (ports belong to the single-switch
     * simulator); targets are network link indices. Events are applied
     * at nominal wall time slot * slot_ps, identically on every shard
     * count.
     */
    void scheduleFaults(const fault::FaultPlan& plan);

    /** The directed network link of edge `e`; a_to_b selects the
        direction (fault-plan target values). */
    int netLinkIndex(int e, bool a_to_b) const;

    /**
     * Run until wall time `until_ps` on `threads` shards (Network::run),
     * applying scheduled fault events on the way. Byte-identical results
     * for every shard count.
     */
    void run(PicoTime until_ps, int threads = 1);

    /** Run `frames` switch frames of nominal wall time. */
    void runFrames(int64_t frames, int threads = 1);

    /** Totals over every controller, link, and switch. */
    LanStats stats() const;

    /** Flows placed so far (flow ids are [0, numFlows)). */
    int numFlows() const { return static_cast<int>(flows_.size()); }

    /** Current routed path of a flow (endpoints included). */
    const std::vector<NodeId>& flowPath(FlowId flow) const;

    // ---- CBR path restoration ----------------------------------------

    /**
     * Arm a fault::PathRestorer: from now on, a link_down revokes every
     * CBR reservation crossing the dead link and re-admits each flow on
     * a fresh path under the policy's retry/backoff schedule. Must be
     * called before run(); fatal when called twice.
     */
    void enableRestoration(const fault::RestorePolicy& policy);

    /** The armed restorer, or null (state and telemetry inspection). */
    const fault::PathRestorer* restorer() const { return restorer_.get(); }

    /** Per-flow facts the restorer (and tests) read. */
    struct FlowInfo
    {
        NodeId src = -1;
        NodeId dst = -1;
        TrafficClass cls = TrafficClass::VBR;
        int cbr_cells = 0;     ///< registered reservation, cells/frame
        int cbr_admitted = 0;  ///< currently admitted rate (<= cbr_cells)
    };
    FlowInfo flowInfo(FlowId flow) const;

    /** Admission LinkIds of each consecutive node pair along `path`. */
    std::vector<LinkId> pathLinks(const std::vector<NodeId>& path) const;

    /**
     * Revoke a CBR flow end-to-end: every switch on its path drops the
     * reservation (frame slots return to the schedules), the admission
     * commitment is released on every link, and the source is muted.
     * @return the cells/frame released.
     */
    int revokeCbrPath(FlowId flow);

    /**
     * Re-admit a previously revoked CBR flow at `cells_per_frame` along
     * `path` (which the caller has checked admissible): reserve on every
     * link and switch, purge queues at switches the flow no longer
     * crosses, and un-mute the source. Fatal if admission refuses.
     */
    void installRestoredCbrPath(FlowId flow,
                                const std::vector<NodeId>& path,
                                int cells_per_frame);

    /** Give a revoked CBR flow up: purge its queues everywhere; the
        source stays muted and its route tombstones keep shedding
        in-flight cells. */
    void abandonCbrFlow(FlowId flow);

    /** ECMP failovers applied so far. */
    int64_t reroutes() const { return reroutes_; }

    /** Flows stranded without a live path by faults. */
    int64_t unroutable() const { return unroutable_; }

    /** Conservative windows the Network has executed (Network::windows). */
    int64_t shardWindows() const { return net_.windows(); }

  private:
    struct FlowRecord
    {
        NodeId src = -1;
        NodeId dst = -1;
        TrafficClass cls = TrafficClass::VBR;
        std::vector<NodeId> path;
        int cbr_cells = 0;     ///< registered CBR reservation
        int cbr_admitted = 0;  ///< currently admitted (0 mid-restoration)
        /** Without a restorer: smallest path-link index whose admission
            was already released downstream of a dead link (SIZE_MAX =
            nothing released). */
        size_t revoked_from = SIZE_MAX;
    };

    void checkHost(NodeId n) const;

    /** Immediate downstream revocation (no restorer armed): free the
        reservation slots a dead link strands at every switch and link
        past it. */
    void releaseDownstream(int dead_link);

    /** Install VBR routing state along `path` for `flow` (switches that
        already know the flow are repointed). */
    void installVbrPath(FlowId flow, const std::vector<NodeId>& path);

    /** Apply one fault event to net + router, rerouting VBR flows. */
    void applyFault(const fault::FaultEvent& ev);

    const Topology& topo_;
    LanConfig config_;
    Network net_;
    Router router_;
    /** Directed net link index per edge: [2e] = a->b, [2e+1] = b->a. */
    std::vector<int> edge_links_;
    /** Per net link: the (edge, a_to_b) it implements. */
    struct EdgeDir
    {
        int edge = -1;
        bool a_to_b = true;
    };
    std::vector<EdgeDir> link_edge_;
    std::vector<FlowRecord> flows_;  ///< indexed by FlowId
    std::vector<fault::FaultEvent> fault_events_;
    size_t fault_cursor_ = 0;
    int64_t reroutes_ = 0;
    int64_t unroutable_ = 0;
    std::unique_ptr<fault::PathRestorer> restorer_;
    int64_t downstream_released_ = 0;
};

}  // namespace an2::topo

#endif  // AN2_TOPO_LAN_H
