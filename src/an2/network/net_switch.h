/**
 * @file
 * A switch node in the drifting-clock network: the AN2 switch of §3-§5
 * (an InputQueuedSwitch with VOQ input buffers, a Slepian-Duguid frame
 * schedule for CBR traffic, and a pluggable matcher such as PIM or
 * statistical matching for VBR traffic) embedded in a multi-hop
 * topology. This node adds only what the LAN needs around that core:
 * its local clock, its links, per-flow routes, the VBR buffer cap, CBR
 * path restoration, and the Appendix B per-flow occupancy statistics.
 */
#ifndef AN2_NETWORK_NET_SWITCH_H
#define AN2_NETWORK_NET_SWITCH_H

#include <memory>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/matching/matcher.h"
#include "an2/network/node.h"
#include "an2/sim/iq_switch.h"

namespace an2 {

/** Switch node with per-flow routing and CBR + VBR scheduling. */
class NetSwitch final : public NetNode
{
  public:
    /**
     * @param id Node id.
     * @param clock Local clock.
     * @param n_ports Port count.
     * @param frame_slots Switch frame length (CBR schedule period).
     * @param vbr_matcher Scheduler for datagram traffic (owned).
     * @param fifo_merge When true, VBR cells arriving on one input for
     *        one output share a single FIFO queue regardless of flow (the
     *        Figure 9 merge discipline) instead of AN2's per-flow queues
     *        with round-robin service.
     */
    NetSwitch(NodeId id, LocalClock clock, int n_ports, int frame_slots,
              std::unique_ptr<Matcher> vbr_matcher,
              bool fifo_merge = false);

    // The core holds a pointer to cbr_'s schedule, so a switch never
    // moves (deleting the copy also removes the implicit move).
    NetSwitch(const NetSwitch&) = delete;
    NetSwitch& operator=(const NetSwitch&) = delete;

    /** Attach the incoming link feeding port p (the link then keeps
        the port's due time; see NetLink::watch). */
    void setInLink(PortId p, NetLink* link);

    /** Attach the outgoing link driven by port p. */
    void setOutLink(PortId p, NetLink* link);

    /**
     * Install the route for a flow crossing this switch and, for CBR
     * flows, reserve cells_per_frame in the frame schedule.
     * @return false if the CBR reservation cannot be accommodated.
     */
    bool addRoute(FlowId flow, PortId in_port, PortId out_port,
                  TrafficClass cls, int cells_per_frame);

    /**
     * Repoint an installed VBR route at a different output port (ECMP
     * failover after a link fault). Cells of the flow already buffered
     * here move to the new output too, in FIFO order, as do cells
     * arriving after the update. Fatal for unknown flows, for CBR routes
     * (reservations are pinned), and in FIFO-merge mode (a merged queue
     * mixes flows).
     */
    void updateRoute(FlowId flow, PortId out_port);

    /** True when `flow` is routed through this switch. */
    bool hasRoute(FlowId flow) const { return routes_.contains(flow); }

    void tick() override;

    /**
     * Cap the VBR buffer at each input to `cells` (0 = unlimited, the
     * default). Arriving datagram cells beyond the cap are dropped and
     * counted — the paper's "VBR cells use a different set of buffers,
     * which are subject to flow control" (§4). CBR buffers are statically
     * allocated by admission control and never drop.
     */
    void setVbrBufferLimit(int cells);

    /** Datagram cells dropped by the VBR buffer cap. */
    int64_t vbrDropped() const { return vbr_dropped_; }

    /**
     * Peak cells of a CBR flow queued here at once (the Appendix B
     * buffer bound); 0 for VBR and unknown flows.
     */
    int maxQueuedCells(FlowId flow) const;

    /**
     * Longest run of consecutive *active* frames of a CBR flow, measured
     * for the flow's class-0 cells (cells with seq % k == 0). Appendix B
     * analyzes a k cells/frame flow as k independent one-cell-per-frame
     * classes and bounds each class's run length (the first displayed
     * formula of §B.2) — the quantity that caps buffer build-up under
     * clock drift. 0 for VBR and unknown flows.
     */
    int maxActiveFrames(FlowId flow) const;

    /** Cells forwarded, per class. */
    int64_t cbrForwarded() const { return core_.cbrForwarded(); }
    int64_t vbrForwarded() const { return core_.vbrForwarded(); }

    // ---- CBR path restoration (driven by fault::PathRestorer) ---------

    /**
     * Revoke a CBR flow's reservation here without removing the route
     * entry: its frame slots return to the Slepian-Duguid schedule, and
     * cells of the flow that still arrive (already in flight, or queued
     * upstream) are dropped at ingress and counted under
     * restorationDropped(). Idempotent; fatal for VBR/unknown flows.
     */
    void revokeCbrRoute(FlowId flow);

    /**
     * (Re-)install a CBR route during restoration: reserve
     * `cells_per_frame` on (in_port, out_port) and re-activate the route.
     * Cells still queued from before the fault are rebound to the new
     * output when the input is unchanged, and purged (counted under
     * restorationPurged()) when the flow now enters by a different port —
     * their old schedule slots no longer exist. Works both for flows with
     * a revoked route here and for switches new to the flow.
     * @return false (no state change) if the reservation does not fit.
     */
    bool restoreCbrRoute(FlowId flow, PortId in_port, PortId out_port,
                         int cells_per_frame);

    /**
     * Discard every queued cell of a CBR flow here (the switch left the
     * flow's path for good). @return cells purged (also added to
     * restorationPurged()).
     */
    int purgeCbrFlow(FlowId flow);

    /** Cells dropped at ingress because their route was revoked. */
    int64_t restorationDropped() const { return restore_dropped_; }

    /** Queued cells purged by restoration re-pathing. */
    int64_t restorationPurged() const { return restore_purged_; }

  private:
    struct Route
    {
        PortId out_port = kNoPort;
        TrafficClass cls = TrafficClass::VBR;
        int cells_per_frame = 0;   ///< CBR reservation (0 for VBR)
        PortId in_port = kNoPort;  ///< ingress port (CBR restoration)
        bool revoked = false;      ///< reservation revoked, not yet rebuilt

        // Appendix B statistics, kept for CBR flows only.
        int queued = 0;                  ///< cells queued here now
        int max_queued = 0;              ///< peak of `queued`
        bool active_this_frame = false;  ///< a class-0 cell left
        int active_run = 0;              ///< consecutive active frames
        int max_active_frames = 0;       ///< peak of `active_run`
    };

    void checkPort(PortId p) const;

    /** Pull arrived cells off the in-links that have a cell due into
        the core's buffers. */
    void acceptArrivals(PicoTime now);

    /** Purge a CBR flow's queue at one input, fixing the route's queued
        count and the restoration loss counter. */
    int purgeCbrQueueAt(PortId p, FlowId flow, Route& route);

    /** Frame boundary: close out every CBR flow's active-frame run. */
    void closeFrame();

    int frame_slots_;
    bool fifo_merge_;
    SlepianDuguidScheduler cbr_;
    /** The AN2 switch proper; serves cbr_'s live schedule. */
    InputQueuedSwitch core_;
    std::vector<NetLink*> in_links_;
    /** Per input port, its in-link's NetLink::nextDue(), kept by the
        link itself (kNever when unwired), so a tick reads only the
        links with a cell due. */
    std::vector<PicoTime> in_due_;
    std::vector<NetLink*> out_links_;
    /** Flow -> route, looked up per arriving cell (O(1), no tree walk). */
    FlatMap<Route> routes_;
    /** CBR flows routed here, walked at each frame boundary. */
    std::vector<FlowId> cbr_flows_;
    int vbr_buffer_limit_ = 0;
    int64_t vbr_dropped_ = 0;
    int64_t restore_dropped_ = 0;
    int64_t restore_purged_ = 0;
    // Per-tick scratch, persistent so the slot loop never allocates.
    std::vector<Cell> arrivals_;
};

}  // namespace an2

#endif  // AN2_NETWORK_NET_SWITCH_H
