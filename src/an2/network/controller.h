/**
 * @file
 * Host network controller (paper §2, §4, Appendix B).
 *
 * The controller is the traffic source and sink at the network edge. For
 * CBR flows it injects up to the reserved number of cells per *controller
 * frame*; the controller frame carries extra empty padding slots at its
 * end so that even the fastest controller's frame takes longer than the
 * slowest switch's frame (F_c-min > F_s-max), which is what bounds
 * downstream buffer build-up under clock drift. VBR flows inject cells as
 * a Bernoulli process in the slots CBR leaves free.
 *
 * As a sink, the controller records per-flow delivery statistics,
 * including the Appendix B adjusted latency and FIFO-order violations.
 */
#ifndef AN2_NETWORK_CONTROLLER_H
#define AN2_NETWORK_CONTROLLER_H

#include <map>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/base/rng.h"
#include "an2/base/stats.h"
#include "an2/cell/cell.h"
#include "an2/network/node.h"

namespace an2 {

/** Per-flow statistics gathered at the destination controller. */
struct FlowDeliveryStats
{
    int64_t delivered = 0;

    /** True end-to-end latency (delivery - injection), wall picoseconds. */
    RunningStats wall_latency_ps;

    /** Adjusted latency L(c, s_p) of Appendix B, wall picoseconds. */
    RunningStats adjusted_latency_ps;

    /** Cells that arrived out of per-flow FIFO order. */
    int64_t order_violations = 0;

    int64_t next_expected_seq = 0;
};

/** A host controller: paced CBR source, Bernoulli VBR source, and sink. */
class Controller final : public NetNode
{
  public:
    /**
     * @param id Node id.
     * @param clock Local clock.
     * @param frame_slots Controller frame length in slots (switch frame
     *        plus clock-drift padding).
     * @param schedulable_slots CBR-usable slots at the head of the frame
     *        (the switch frame length); the remainder is padding.
     * @param seed PRNG seed for VBR injection.
     */
    Controller(NodeId id, LocalClock clock, int frame_slots,
               int schedulable_slots, uint64_t seed);

    // An in-link holds a pointer to in_due_, so a controller never
    // moves (deleting the copy also removes the implicit move).
    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /** Attach the outgoing link (source side); fatal if already wired. */
    void setOutLink(NetLink* link);

    /** Attach the incoming link (sink side); fatal if already wired. The
        link then keeps the due time (see NetLink::watch). */
    void setInLink(NetLink* link);

    /**
     * Register a CBR flow originating here with k cells/frame. Flows are
     * assigned contiguous slot ranges in registration order; the total
     * must fit in the schedulable portion of the frame. The source is
     * modeled as always backlogged (worst case for downstream buffers).
     *
     * @param attempted_per_frame Cells the application *tries* to send
     *        per frame; anything beyond cells_per_frame is dropped by the
     *        controller's meter (paper §4: "if the application exceeds
     *        its reservation, the excess cells may be dropped"). Defaults
     *        to exactly the reservation (a well-behaved source).
     */
    void addCbrSource(FlowId flow, int cells_per_frame,
                      int attempted_per_frame = 0);

    /** Cells of `flow` dropped by the metering policer so far. */
    int64_t policedDrops(FlowId flow) const;

    /**
     * Throttle a CBR source to `cells` cells/frame without disturbing its
     * frame-slot assignment (path restoration: 0 mutes the source while
     * its path is being rebuilt; a value below the registered reservation
     * models a degraded re-admission). Skipped slots consume no sequence
     * numbers, so delivery stays FIFO-clean across a pause. `cells` must
     * be in [0, cells_per_frame]; fatal if no such source exists here.
     */
    void setCbrActiveCells(FlowId flow, int cells);

    /**
     * Register a VBR flow originating here injecting with probability
     * `rate` per free slot. Total VBR rate must not exceed 1.
     */
    void addVbrSource(FlowId flow, double rate);

    void tick() override;

    /** Delivery statistics for a flow terminating here. */
    const FlowDeliveryStats& deliveryStats(FlowId flow) const;

    /** True when at least one cell of `flow` was delivered here. */
    bool hasDeliveries(FlowId flow) const
    {
        return delivered_.contains(flow);
    }

    /** All sink-side statistics, ordered by flow (reporting; copies). */
    std::map<FlowId, FlowDeliveryStats> allDeliveryStats() const
    {
        return delivered_.toMap();
    }

    /** Cells injected so far, per flow. */
    int64_t injectedCells(FlowId flow) const;

  private:
    struct CbrSource
    {
        FlowId flow;
        int cells_per_frame;
        int attempted_per_frame;
        int active_cells;  ///< cells actually emitted per frame (<= k)
        int first_slot;    ///< first frame slot assigned to this flow
        int64_t next_seq = 0;
        int64_t injected = 0;
        int64_t policed_drops = 0;
    };

    struct VbrSource
    {
        FlowId flow;
        double rate;
        int64_t next_seq = 0;
        int64_t injected = 0;
    };

    /** Receive and account cells that have arrived by `now`. */
    void drainSink(PicoTime now);

    /** Emit a cell for `flow` with class `cls` at wall time now. */
    void emit(FlowId flow, TrafficClass cls, int64_t seq, PicoTime now,
              int64_t slot);

    int frame_slots_;
    int schedulable_slots_;
    int cbr_assigned_ = 0;
    NetLink* out_link_ = nullptr;
    NetLink* in_link_ = nullptr;
    /** in_link_'s NetLink::nextDue(), kept by the link (kNever when
        unwired), so an idle sink tick reads no link. */
    PicoTime in_due_ = NetLink::kNever;
    std::vector<CbrSource> cbr_sources_;
    std::vector<VbrSource> vbr_sources_;
    double total_vbr_rate_ = 0.0;
    /** Flow-indexed flat table: the per-cell sink accounting path stays
        allocation-free once every terminating flow has been seen. */
    FlatMap<FlowDeliveryStats> delivered_;
    /** Arrival scratch, persistent across ticks. */
    std::vector<Cell> arrivals_;
    Xoshiro256 rng_;
};

}  // namespace an2

#endif  // AN2_NETWORK_CONTROLLER_H
