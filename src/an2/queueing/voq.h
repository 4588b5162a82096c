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
 * Layout: like the hardware's one cell memory per port, queued cells
 * live in a single per-input slab of {cell, next} entries. A flow's FIFO
 * is a chain of `int32` next-links through the slab, and freed entries
 * form a free list, so the buffer's cell memory is bounded by the most
 * cells it has held at once, whatever the number of flows. A flow is
 * head, tail and count plus one link in its output's eligible list; an
 * output is its cell count and the head and tail of that list.
 *
 * A flat integer-keyed index maps flow ids to flow slots. Each output
 * also remembers the slot of the last flow enqueued there, so a run of
 * cells for one flow skips the index probe. Dequeue — the
 * matching-driven hot path — touches no hash structure at all.
 */
#ifndef AN2_QUEUEING_VOQ_H
#define AN2_QUEUEING_VOQ_H

#include <cstdint>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/cell/cell.h"

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

    /** Number of distinct eligible flows for output j. */
    int eligibleFlowsFor(PortId j) const;

    /**
     * Serve output j: pick the next eligible flow round-robin, dequeue its
     * head cell, and maintain the eligible list. Requires hasCellFor(j).
     */
    Cell dequeueFor(PortId j);

    /**
     * Repoint a flow at a new output (VBR rerouting). Queued cells are
     * retagged in FIFO order and the per-output counts and eligible
     * lists move with them; a no-op when the flow has no state here or
     * is already bound to `new_output`.
     * @return the number of cells moved.
     */
    int rebindFlow(FlowId f, PortId new_output);

    /**
     * Discard every queued cell of a flow (CBR path restoration: cells
     * buffered at a switch that left the flow's path can never be
     * scheduled again). Counts and eligible lists are maintained; the
     * flow's slot survives for later re-use.
     * @return the number of cells discarded.
     */
    int purgeFlow(FlowId f);

  private:
    /** End of a slab chain or eligible list; an unset cache entry. */
    static constexpr int32_t kNil = -1;

    /** One slab entry: a queued cell and the next cell of its flow, or,
        on the free list, the next free entry. */
    struct Entry
    {
        Cell cell;
        int32_t next = kNil;
    };

    struct PerFlow
    {
        FlowId key = kNoFlow;          ///< the queue key of this slot
        PortId output = kNoPort;       ///< the flow's routed output
        int32_t head = kNil;           ///< oldest queued cell (slab index)
        int32_t tail = kNil;           ///< newest queued cell (slab index)
        int32_t count = 0;             ///< queued cells
        int32_t next_eligible = kNil;  ///< next flow in the output's list
    };

    /**
     * Per-output bookkeeping in one record, so the hot paths touch one
     * line per output. A flow is in its output's eligible list iff it
     * has a queued cell.
     */
    struct PerOutput
    {
        int32_t cells = 0;     ///< cells queued for this output (all flows)
        int32_t head = kNil;   ///< next flow to serve (flows_ index)
        int32_t tail = kNil;   ///< last flow in the round-robin order
        int32_t last = kNil;   ///< flow most recently enqueued here
    };

    /** Index into flows_ for key f, creating the slot on first touch. */
    int32_t flowSlot(FlowId f);

    /** A slab entry holding `cell`, from the free list when possible. */
    int32_t allocEntry(const Cell& cell);

    /** Seat flow `slot` at the back of `po`'s eligible list. */
    void appendEligible(PerOutput& po, int32_t slot);

    /** Take flow `slot` out of `po`'s eligible list, wherever it sits. */
    void unlinkEligible(PerOutput& po, int32_t slot);

    int n_outputs_;
    int total_cells_ = 0;
    /** FlowId -> flows_ index + 1 (0 = absent). Consulted only when a
        cell arrives for a flow other than its output's last one, or a
        caller names a flow explicitly. */
    FlatMap<int32_t> flow_index_;
    /** Per-flow state, append-only (flows are never removed, matching
        the paper's per-connection queue model). */
    std::vector<PerFlow> flows_;
    std::vector<PerOutput> per_output_;
    /** The cell memory; grows by doubling, never shrinks. */
    std::vector<Entry> slab_;
    /** Head of the free entries' chain through slab_. */
    int32_t free_ = kNil;
};

}  // namespace an2

#endif  // AN2_QUEUEING_VOQ_H
