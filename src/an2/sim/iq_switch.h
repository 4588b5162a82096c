/**
 * @file
 * The AN2 input-queued switch model (paper §3-§4): random-access input
 * buffers, a pluggable scheduling algorithm for datagram (VBR) traffic,
 * and an optional pre-computed frame schedule for reserved (CBR) traffic.
 *
 * Slot sequence (matching the hardware's pipeline):
 *  1. CBR service — the frame schedule's pairings for this slot forward a
 *     queued CBR cell, if one is present, claiming their ports.
 *  2. VBR matching — the scheduler (typically PIM) runs over the ports
 *     left free, including scheduled-but-idle CBR pairings, so VBR fills
 *     every slot CBR does not use (§4).
 *  3. Forwarding across the crossbar; departures leave on output links.
 *
 * An optional output stage turns the switch into a combined input-output
 * queued (CIOQ) switch. Cells that cross the fabric join per-output,
 * per-class queues (CBR > VBR > best-effort), and every live output sends
 * one cell per slot, chosen by strict priority or weighted round-robin.
 * Two things may then put more than one cell into an output per slot:
 * a matcher with output capacity k > 1 (the replicated fabric of §3.1),
 * and up to S matching phases per slot (crossbar speedup S, Cogill &
 * Lall). With a maximal matcher, S = 2 tracks the ideal output-queued
 * switch. The output stage excludes a frame schedule and pipelining; a
 * CBR-class cell is then matched like VBR and takes its priority at the
 * output.
 *
 * The scheduling input is a persistent RequestMatrix patched as cells
 * arrive and depart (one increment per enqueue, one decrement per
 * dequeue), mirroring the hardware's per-port-pair request wires; the
 * O(N^2) per-slot rebuild of earlier revisions is gone, and steady-state
 * runSlot() performs no heap allocation.
 *
 * The LAN's switch nodes (network/net_switch.h) run this same switch,
 * one slot per local clock tick; rebindFlow() and purgeCbrFlow() serve
 * their rerouting and CBR path restoration.
 */
#ifndef AN2_SIM_IQ_SWITCH_H
#define AN2_SIM_IQ_SWITCH_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "an2/base/ring.h"
#include "an2/cbr/frame_schedule.h"
#include "an2/fabric/crossbar.h"
#include "an2/fault/invariants.h"
#include "an2/matching/matcher.h"
#include "an2/queueing/voq.h"
#include "an2/sim/switch.h"

namespace an2 {

namespace obs {
class Recorder;
}  // namespace obs

/** How the output stage picks among an output's class queues each slot. */
enum class ServiceDiscipline : uint8_t {
    None,    ///< no output stage: crossed cells leave at once
    Strict,  ///< CBR before VBR before best-effort, always
    Wrr,     ///< weighted round-robin over non-empty classes
};

/** Configuration for an InputQueuedSwitch. */
struct IqSwitchConfig
{
    /** Switch size N. */
    int n = 16;

    /**
     * Model the hardware scheduling pipeline: the matching used in slot
     * t is computed during slot t-1 ("there is a fixed amount of time to
     * schedule the switch -- the time to receive one cell", §3.2), so
     * datagram cells see one extra slot of latency and a cell arriving
     * in slot t is first eligible in slot t+1. CBR cells are unaffected
     * (their schedule is precomputed). Off by default: the unpipelined
     * model shifts every VBR delay by the same constant.
     */
    bool pipelined = false;

    /** Matching phases per slot (crossbar speedup S), 1..4. S > 1
        needs the output stage. */
    int speedup = 1;

    /** The output stage: None (default) sends crossed cells at once;
        Strict or Wrr queues them per output and class. */
    ServiceDiscipline service = ServiceDiscipline::None;

    /** WRR weights per TrafficClass (cells served before the pointer
        advances); ignored unless the service is Wrr. */
    std::array<int, kNumTrafficClasses> wrr_weights = {4, 2, 1};
};

/** The AN2 switch: VOQ input buffers + pluggable matcher + CBR schedule,
    with an optional per-class output stage. */
class InputQueuedSwitch final : public SwitchModel
{
  public:
    /**
     * @param config Switch parameters.
     * @param matcher VBR scheduling algorithm (owned).
     * @param cbr_schedule Optional frame schedule for CBR traffic; not
     *        owned, may be updated externally between slots (reservation
     *        changes). Must outlive the switch. The output stage cannot
     *        be combined with a CBR schedule.
     */
    InputQueuedSwitch(const IqSwitchConfig& config,
                      std::unique_ptr<Matcher> matcher,
                      const FrameSchedule* cbr_schedule = nullptr);

    void acceptCell(const Cell& cell) override
    {
        acceptCellAs(cell.flow, cell);
    }

    /**
     * Buffer a cell under an explicit queue key instead of its flow id
     * (InputBuffer::enqueueAs): cells sharing a key share one FIFO, as
     * in the Figure 9 switches that merge an input's traffic per output.
     */
    void acceptCellAs(FlowId queue_key, const Cell& cell);

    const std::vector<Cell>& runSlot(SlotTime slot) override;
    void runSlots(SlotTime first, SlotTime count,
                  SlotDriver& driver) override;
    int bufferedCells() const override;
    std::string name() const override;
    int size() const override { return config_.n; }

    void setInputPortLive(PortId i, bool live) override;
    void setOutputPortLive(PortId j, bool live) override;
    bool inputPortLive(PortId i) const override;
    bool outputPortLive(PortId j) const override;
    int64_t droppedCells() const override { return checker_.dropped(); }

    /** CBR cells among droppedCells() (lost reserved traffic). */
    int64_t cbrCellsLost() const { return cbr_cells_lost_; }

    /** The per-slot invariant ledger (conservation totals). */
    const fault::InvariantChecker& invariants() const { return checker_; }

    /** CBR cells the frame schedule forwarded so far. */
    int64_t cbrForwarded() const { return cbr_forwarded_; }

    /** Cells the VBR matching forwarded so far (with the output stage,
        CBR-class cells too). */
    int64_t vbrForwarded() const { return vbr_forwarded_; }

    /** VBR cells forwarded inside scheduled-but-idle CBR slots. */
    int64_t vbrInCbrSlots() const { return vbr_in_cbr_slots_; }

    /** The crossbar fabric (utilization statistics). */
    const Crossbar& crossbar() const { return crossbar_; }

    /** The VBR scheduler. */
    Matcher& matcher() { return *matcher_; }

    /** The persistent VBR request matrix (patched incrementally). */
    const RequestMatrix& vbrRequests() const { return vbr_req_; }

    /** VBR cells buffered at input i. */
    int vbrCellsAt(PortId i) const
    {
        return vbr_bufs_[static_cast<size_t>(i)].totalCells();
    }

    /**
     * Repoint a flow queued at input i at a new output (rerouting): its
     * cells keep their FIFO order and move to the new VOQ, and for VBR
     * the request matrix moves with them. A no-op when the flow has no
     * state at that input.
     */
    void rebindFlow(PortId i, TrafficClass cls, FlowId flow,
                    PortId new_output);

    /**
     * Discard every CBR cell of `flow` queued at input i (CBR path
     * restoration). The ledger counts them as purged. Only a switch
     * with a frame schedule has CBR buffers; any other returns 0.
     * @return cells discarded.
     */
    int purgeCbrFlow(PortId i, FlowId flow);

    /** Real VOQ occupancy (VBR + CBR buffers, plus the output queues
        in the backlog). */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const override;

    /** Matching phases executed so far by the output-queued switch
        (<= speedup per slot). */
    int64_t phasesRun() const { return phases_run_; }

    /** Largest single-output backlog (all classes) seen at any slot
        boundary. */
    int64_t outputQueueHighWaterMark() const { return out_hwm_; }

    /** Cells currently queued at output j in class `cls` (0 without
        the output stage). */
    int outputQueueDepth(PortId j, TrafficClass cls) const
    {
        return out_q_.empty() ? 0
                              : static_cast<int>(outQueue(j, cls).size());
    }

  private:
    /** True when crossed cells wait in per-output class queues. */
    bool hasOutputQueues() const
    {
        return config_.service != ServiceDiscipline::None;
    }

    RingQueue<Cell>& outQueue(PortId j, TrafficClass cls)
    {
        return out_q_[static_cast<size_t>(j) * kNumTrafficClasses +
                      static_cast<size_t>(cls)];
    }

    const RingQueue<Cell>& outQueue(PortId j, TrafficClass cls) const
    {
        return out_q_[static_cast<size_t>(j) * kNumTrafficClasses +
                      static_cast<size_t>(cls)];
    }

    /** Send at most one cell from output j's class queues, chosen by
        the service discipline, into departed_. */
    void serveOutput(PortId j);

    /** Cells queued at output j across its class queues. */
    int outputBacklog(PortId j) const;

    /** Serve the frame schedule's pairings for frame slot `fs` into
        forwarded_, marking claimed ports in in_busy_/out_busy_; returns
        count. Visits only the inputs the slot schedules. */
    int serveCbr(int fs);

    /** Predict the ports the frame schedule will claim in frame slot
        `fs`, marking them in next_in_/next_out_; returns true if any. */
    bool predictCbrBusy(int fs);

    /** Dequeue the VBR cell behind pairing (i,j), crossing in frame
        slot `fs` (ignored without a schedule), and log statistics. */
    void forwardVbr(int fs, PortId i, PortId j);

    /**
     * Compute a VBR matching into `out`, excluding the ports whose bits
     * are set in the given busy masks (`any_busy` false = all free).
     */
    void computeVbrMatch(const uint64_t* in_busy, const uint64_t* out_busy,
                         bool any_busy, Matching& out);

    /** Fill the recorder's VOQ/backlog scratch with the current queue
        state and commit one snapshot line for `slot`. */
    void takeSnapshot(obs::Recorder& rec, SlotTime slot) const;

    IqSwitchConfig config_;
    std::unique_ptr<Matcher> matcher_;
    const FrameSchedule* cbr_schedule_;
    std::vector<InputBuffer> vbr_bufs_;
    std::vector<InputBuffer> cbr_bufs_;  ///< built only with a schedule
    Crossbar crossbar_;

    /** The output stage's per-output, per-class FIFO rings, class-major
        within an output; empty without the output stage. */
    std::vector<RingQueue<Cell>> out_q_;

    // WRR state per output: the class the pointer rests on and the
    // credit it has left there.
    std::vector<uint8_t> wrr_cls_;
    std::vector<int32_t> wrr_credit_;

    /**
     * Requests for the VBR scheduler: count(i,j) = cells queued in input
     * i's VBR buffer for output j (every class, with the output stage).
     * Incremented in acceptCell, decremented as cells cross the fabric —
     * never rebuilt.
     */
    RequestMatrix vbr_req_;
    /** Scratch copy of vbr_req_ with CBR-claimed ports cleared. */
    RequestMatrix masked_req_;

    // Per-slot scratch, reused so steady-state slots never allocate.
    int busy_words_;                   ///< words per port bitmask
    std::vector<uint64_t> in_busy_;    ///< inputs claimed by CBR
    std::vector<uint64_t> out_busy_;   ///< outputs claimed by CBR
    std::vector<uint64_t> next_in_;    ///< predicted busy, next slot
    std::vector<uint64_t> next_out_;   ///< predicted busy, next slot
    Matching vbr_match_;               ///< matcher output buffer
    Matching combined_;                ///< merged CBR + VBR setting
    std::vector<Cell> forwarded_;      ///< cells crossing this slot
    std::vector<Cell> departed_;       ///< runSlot return (output stage)

    /** Pipelined mode: the matching precomputed for the next slot. */
    Matching pending_vbr_;
    bool has_pending_ = false;

    // Fault state: dead-port bitmasks mirrored into vbr_req_'s liveness,
    // plus the always-on conservation ledger.
    std::vector<uint64_t> dead_in_;
    std::vector<uint64_t> dead_out_;
    bool any_dead_ = false;
    fault::InvariantChecker checker_;
    int64_t cbr_cells_lost_ = 0;

    int64_t cbr_forwarded_ = 0;
    int64_t vbr_forwarded_ = 0;
    int64_t vbr_in_cbr_slots_ = 0;
    int64_t phases_run_ = 0;
    int64_t out_hwm_ = 0;
};

}  // namespace an2

#endif  // AN2_SIM_IQ_SWITCH_H
