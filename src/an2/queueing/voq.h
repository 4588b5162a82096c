/**
 * @file
 * Random-access input buffer for one switch input port (paper §3.3).
 *
 * The buffer is organized exactly as the paper describes the hardware:
 * each flow has its own FIFO queue of cells; per output, a round-robin
 * list of *eligible* flows (flows with at least one queued cell) is
 * maintained. The input requests output j during matching iff the
 * eligible list for j is non-empty; when the request is granted, the next
 * eligible flow is served round-robin.
 *
 * Viewed per output, this structure is a virtual output queue (VOQ);
 * the class name reflects that common framing.
 *
 * Layout: per-flow state lives in a dense append-only vector; a flat
 * integer-keyed index maps flow ids to vector slots, and the per-output
 * eligible rings store slot indices directly. Enqueue therefore costs
 * one linear-probe lookup, and dequeue — the matching-driven hot path —
 * touches no hash structure at all.
 *
 * Single-flow fast path: most workloads route exactly one flow to each
 * (input, output) pair, so each per-output record carries the slot of
 * the *sole* flow bound to that output (sticky: it degrades to "many"
 * the moment a second flow binds and never recovers). While an output
 * is single-flow, enqueue skips the flow-index probe and dequeue skips
 * the eligible ring entirely — the round-robin among one flow is the
 * identity — and the transition to many flows restores the eligible
 * list to exactly the state the general path would have maintained.
 */
#ifndef AN2_QUEUEING_VOQ_H
#define AN2_QUEUEING_VOQ_H

#include <cstdint>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/base/ring.h"
#include "an2/cell/cell.h"
#include "an2/cell/flow.h"

namespace an2 {

/** Input buffer with per-flow FIFOs and per-output eligible-flow lists. */
class InputBuffer
{
  public:
    /** @param n_outputs Number of switch outputs. */
    explicit InputBuffer(int n_outputs);

    /**
     * Buffer an arriving cell. The cell's `output` field routes it to the
     * appropriate eligible list.
     */
    void enqueue(const Cell& cell);

    /**
     * Buffer a cell under an explicit queue key instead of its flow id.
     * Cells sharing a key share one FIFO queue and one round-robin seat;
     * used to model switches that merge all of an input's traffic into a
     * single FIFO per output (the Figure 9 "round-robin among input
     * ports" discipline) rather than AN2's per-flow queues. The key must
     * consistently map to one output, like a flow.
     */
    void enqueueAs(FlowId queue_key, const Cell& cell);

    /** True when some flow has a cell queued for output j. */
    bool hasCellFor(PortId j) const;

    /** Number of cells queued for output j (across all flows). */
    int cellCountFor(PortId j) const;

    /** Total buffered cells at this input. */
    int totalCells() const { return total_cells_; }

    /**
     * Occupancy bitmask: bit j set iff some cell is queued for output j.
     * Maintained incrementally on enqueue/dequeue; this is the input's
     * request row, read directly by the switch to patch its persistent
     * request matrix instead of rescanning every (input, output) pair.
     */
    const uint64_t* occupancyMask() const { return occ_.data(); }

    /** Number of 64-bit words in occupancyMask(). */
    int occupancyWords() const { return static_cast<int>(occ_.size()); }

    /** Number of distinct eligible flows for output j. */
    int eligibleFlowsFor(PortId j) const;

    /**
     * Serve output j: pick the next eligible flow round-robin, dequeue its
     * head cell, and maintain the eligible list. Requires hasCellFor(j).
     */
    Cell dequeueFor(PortId j);

    /** True when a specific flow has at least one queued cell. */
    bool flowHasCell(FlowId f) const;

    /**
     * Dequeue the head cell of a specific flow (used by the CBR frame
     * schedule, which reserves slots per flow). Requires flowHasCell(f).
     */
    Cell dequeueFlow(FlowId f);

    /**
     * Repoint a flow at a new output (VBR rerouting). Queued cells are
     * retagged in FIFO order and the per-output counts, occupancy bits,
     * and eligible lists move with them; a no-op when the flow has no
     * state here or is already bound to `new_output`.
     * @return the number of cells moved.
     */
    int rebindFlow(FlowId f, PortId new_output);

    /**
     * Discard every queued cell of a flow (CBR path restoration: cells
     * buffered at a switch that left the flow's path can never be
     * scheduled again). Counts, occupancy bits, and eligible lists are
     * maintained; the flow's slot survives for later re-use.
     * @return the number of cells discarded.
     */
    int purgeFlow(FlowId f);

  private:
    struct PerFlow
    {
        /** Per-flow FIFO; a ring so steady-state churn never allocates
            (std::deque slides through 512-byte blocks as it rotates). */
        RingQueue<Cell> cells;
        bool eligible_listed = false;  ///< present in an eligible list
        PortId output = kNoPort;       ///< the flow's routed output
        FlowId flow = kNoFlow;         ///< the flow this slot belongs to
    };

    /**
     * Per-output bookkeeping, one cache-resident record combining the
     * queued-cell count with the single-flow fast-path hint so the hot
     * paths touch one line per output instead of two arrays.
     */
    struct PerOutput
    {
        int32_t cells = 0;  ///< cells queued for this output (all flows)
        /** slots_ index + 1 of the only flow ever bound to this output;
            0 = none yet, -1 = two or more (sticky). */
        int32_t sole = 0;
    };

    /** Index into slots_ for flow f, creating the slot on first touch. */
    int32_t flowSlot(FlowId f);

    /** Record one fewer cell for output j, keeping occ_ in sync. */
    void noteDequeued(PortId j);

    /**
     * Output j is gaining a second flow: re-establish the general-path
     * eligible-list invariant (listed iff non-empty) that the direct
     * single-flow paths elide, then mark the output multi-flow.
     */
    void reconcileSole(PerOutput& po, PortId j);

    int n_outputs_;
    int total_cells_ = 0;
    /**
     * FlowId -> slots_ index + 1 (0 = absent). A linear-probe flat map,
     * so the enqueue path's lookup is one multiply and a short probe;
     * the map is consulted only when a cell arrives or a caller names a
     * flow explicitly — the dequeue path below never hashes at all.
     */
    FlatMap<int32_t> flow_index_;
    /** Per-flow state, append-only (flows are never removed, matching
        the paper's per-connection queue model). */
    std::vector<PerFlow> slots_;
    /**
     * Round-robin eligible list per output, holding slots_ *indices*
     * (not flow ids): serving an output is ring-pop + direct vector
     * access. A ring (not a deque) so steady-state rotation never
     * allocates.
     */
    std::vector<RingQueue<int32_t>> eligible_;
    /** Count + single-flow hint per output, maintained incrementally. */
    std::vector<PerOutput> per_output_;
    /** Bit j set iff per_output_[j].cells > 0. */
    std::vector<uint64_t> occ_;
};

}  // namespace an2

#endif  // AN2_QUEUEING_VOQ_H
