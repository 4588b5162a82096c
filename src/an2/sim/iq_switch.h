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
 * queued (CIOQ) switch. Cells that cross the fabric join their output's
 * queue, and every live output sends one cell per slot, chosen by the
 * service discipline: one FIFO, per-class queues (CBR > VBR >
 * best-effort) served by strict priority or weighted round-robin, or
 * Zhang's virtual clock. Two things may then put more than one cell into
 * an output per slot: a matcher with output capacity k > 1 (the
 * replicated fabric of §3.1), and up to S matching phases per slot
 * (crossbar speedup S, Cogill & Lall). With a maximal matcher, S = 2
 * tracks the ideal output-queued switch. The output stage excludes a
 * frame schedule and pipelining; a CBR-class cell is then matched like
 * VBR and takes its priority at the output.
 *
 * Built with an output stage but no matcher, the switch is that ideal:
 * perfect output queueing (§2.4), the envelope every scheduler is
 * measured against in Figures 1, 3 and 4. Its fabric delivers any
 * number of simultaneous arrivals, so each accepted cell joins its
 * output's queue at once and never touches a VOQ, the request matrix or
 * a matcher. With the virtual-clock discipline it is §5.1's fairness
 * baseline (Figure 8).
 *
 * The third form, built with neither, is FIFO input queueing: the
 * head-of-line baseline of Figures 1, 3, 4 and 5 (§2.4). Each input
 * keeps one FIFO ring, and only its first W cells may bid (W = 1 by
 * default). Each slot runs up to R contention rounds, the iterative
 * scheme of Hui & Arthurs as extended by Karol et al.: every unmatched
 * input bids the output of its current cell, each contended output picks
 * one bidder uniformly at random, and a loser moves on to its next cell.
 * It uses no VOQ, request matrix or matcher either.
 *
 * The scheduling input is a persistent RequestMatrix of the hardware's
 * per-port-pair request wires, patched as cells arrive and depart (a
 * wire rises with the first cell of a VOQ and drops with its last); the
 * VBR buffers keep the only cell counts. A wire is raised only while
 * both its ports are live: killing a port drops its wires, and reviving
 * it raises them again from its VOQs, so the dead-port masks are the
 * switch's only record of liveness and no matcher sees a dead port.
 * Nothing is rebuilt per slot but, in a slot whose CBR cells claim
 * ports, the matcher's view: the wires minus the claimed ports' rows and
 * columns, one pass of word ANDs (RequestMatrix::assignMasked).
 * Steady-state runSlot() performs no heap allocation.
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
#include <string>
#include <tuple>
#include <vector>

#include "an2/base/flat_map.h"
#include "an2/base/ring.h"
#include "an2/base/rng.h"
#include "an2/cbr/frame_schedule.h"
#include "an2/fabric/crossbar.h"
#include "an2/fault/invariants.h"
#include "an2/matching/matcher.h"
#include "an2/queueing/voq.h"

namespace an2 {

namespace obs {
class Recorder;
}  // namespace obs

/** How the output stage picks the cell an output sends each slot. */
enum class ServiceDiscipline : uint8_t {
    None,          ///< no output stage: crossed cells leave at once
    Strict,        ///< CBR before VBR before best-effort, always
    Wrr,           ///< weighted round-robin over non-empty classes
    Fifo,          ///< one queue per output, every class in crossing order
    VirtualClock,  ///< earliest virtual-clock stamp first (Zhang 1991)
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
        Fifo queues them per output in crossing order, Strict or Wrr per
        output and class, and VirtualClock per output by the stamp of
        their flow's clock (setFlowRate). Required without a matcher. */
    ServiceDiscipline service = ServiceDiscipline::None;

    /** WRR weights per TrafficClass (cells served before the pointer
        advances); ignored unless the service is Wrr. */
    std::array<int, kNumTrafficClasses> wrr_weights = {4, 2, 1};
};

/**
 * Per-slot callbacks for the batched slot loop
 * (InputQueuedSwitch::runSlots). The driver supplies each slot's
 * arrivals and consumes its departures.
 */
class SlotDriver
{
  public:
    virtual ~SlotDriver() = default;

    /**
     * Arrivals for `slot` (cells already past any admission/fault
     * filtering — every returned cell is fed to the switch). The buffer
     * must stay valid until the same slot's endSlot() returns; drivers
     * reuse one buffer so steady-state slots perform no allocation.
     */
    virtual const std::vector<Cell>& beginSlot(SlotTime slot) = 0;

    /** Departures of `slot` (the switch's runSlot() return buffer). */
    virtual void endSlot(SlotTime slot,
                         const std::vector<Cell>& departed) = 0;
};

/**
 * The AN2 switch: VOQ input buffers + pluggable matcher + CBR schedule,
 * with an optional output stage; without a matcher, perfect output
 * queueing or FIFO input queueing. A cell's delay is its departure slot
 * minus its injection slot.
 *
 * A dead port carries nothing: arrivals at a dead input or bound for a
 * dead output are dropped and counted in droppedCells(); cells already
 * queued toward a dead output stay buffered until it revives.
 */
class InputQueuedSwitch
{
  public:
    /**
     * @param config Switch parameters.
     * @param matcher VBR scheduling algorithm (owned). Null builds the
     *        perfect fabric, which needs an output stage and speedup 1.
     * @param cbr_schedule Optional frame schedule for CBR traffic; not
     *        owned, may be updated externally between slots (reservation
     *        changes). Must outlive the switch. The output stage cannot
     *        be combined with a CBR schedule.
     */
    InputQueuedSwitch(const IqSwitchConfig& config,
                      std::unique_ptr<Matcher> matcher,
                      const FrameSchedule* cbr_schedule = nullptr);

    /** The perfect fabric: every accepted cell joins its output's queue
        at once (`config.service` must name an output stage). */
    explicit InputQueuedSwitch(const IqSwitchConfig& config);

    /**
     * The FIFO input form, with n ports.
     * @param seed PRNG seed for contention resolution.
     * @param window Queue positions eligible per slot (1 = strict FIFO).
     * @param rounds Contention rounds per slot (>= 1; ignored beyond the
     *        window since a loser needs a next cell to bid).
     */
    InputQueuedSwitch(int n, uint64_t seed, int window = 1, int rounds = 1);

    /** Accept a cell arriving at the start of the current slot. */
    void acceptCell(const Cell& cell) { acceptCellAs(cell.flow, cell); }

    /**
     * Buffer a cell under an explicit queue key instead of its flow id
     * (InputBuffer::enqueueAs): cells sharing a key share one FIFO, as
     * in the Figure 9 switches that merge an input's traffic per output.
     */
    void acceptCellAs(FlowId queue_key, const Cell& cell);

    /** Schedule and forward slot `slot`, after all of its arrivals;
        returns the departing cells in a buffer the switch reuses at the
        next runSlot() call. */
    const std::vector<Cell>& runSlot(SlotTime slot);

    /**
     * Run `count` consecutive slots from `first`: each slot's arrivals
     * come from `driver`, go through acceptCell(), and runSlot()'s
     * departures go back to it.
     */
    void runSlots(SlotTime first, SlotTime count, SlotDriver& driver);

    /** Cells currently buffered anywhere in the switch. */
    int bufferedCells() const;

    /** Architecture name for reports. */
    std::string name() const;

    /** Number of ports. */
    int size() const { return config_.n; }

    /** Mark input port `i` (output port `j`) live or dead; the VOQ form
        drops or raises again the port's request wires, O(n) per flip. */
    void setInputPortLive(PortId i, bool live);
    void setOutputPortLive(PortId j, bool live);
    bool inputPortLive(PortId i) const;
    bool outputPortLive(PortId j) const;

    /** Cells discarded at dead ports. */
    int64_t droppedCells() const { return checker_.dropped(); }

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

    /** The persistent VBR request matrix (patched incrementally). */
    const RequestMatrix& vbrRequests() const { return vbr_req_; }

    /** VBR cells buffered at input i (0 in the perfect fabric). */
    int vbrCellsAt(PortId i) const
    {
        return vbr_bufs_.empty()
                   ? 0
                   : vbr_bufs_[static_cast<size_t>(i)].totalCells();
    }

    /** Assign a flow's virtual-clock rate in cells/slot (0 < rate <= 1):
        each of its cells is stamped max(clock, arrival slot) + 1/rate.
        Needs the VirtualClock service. */
    void setFlowRate(FlowId flow, double rate);

    /** Virtual-clock rate of unregistered flows (default 0.01). */
    void setDefaultRate(double rate);

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

    /**
     * Fill `voq` (size() x size() entries, row-major by input) with the
     * cells queued per (input, output) pair, in the VBR and CBR buffers
     * or the FIFO rings, and `backlog` (size() entries) with the cells
     * queued per output, the output queues included. Diagnostic path
     * only (snapshots, flight-recorder post-mortems).
     */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const;

    /** Matching phases executed so far by the output-queued switch
        (<= speedup per slot). */
    int64_t phasesRun() const { return phases_run_; }

    /** Largest single-output backlog (all classes) seen at any slot
        boundary. */
    int64_t outputQueueHighWaterMark() const { return out_hwm_; }

  private:
    /** True when crossed cells wait in per-output queues. */
    bool hasOutputQueues() const
    {
        return config_.service != ServiceDiscipline::None;
    }

    /** Output j's ring for class `cls` under Strict or Wrr. */
    RingQueue<Cell>& classQueue(PortId j, TrafficClass cls)
    {
        return out_q_[static_cast<size_t>(j) * kNumTrafficClasses +
                      static_cast<size_t>(cls)];
    }

    /** File a cell in its output's queue: at accept in the perfect
        fabric, as it crosses the crossbar otherwise. */
    void fileCell(const Cell& cell);

    /** Every live output sends at most one cell into departed_; then
        the backlog high-water mark is updated. */
    void serveOutputs();

    /** Send at most one cell from output j's queues under Strict, Wrr
        or VirtualClock (Fifo is served inline by serveOutputs). */
    void serveOutput(PortId j);

    /** Cells queued at output j. */
    int outputBacklog(PortId j) const;

    /** Serve the frame schedule's pairings for frame slot `fs` into
        forwarded_, marking claimed ports in in_busy_/out_busy_; returns
        count. Visits only the inputs the slot schedules. */
    int serveCbr(int fs);

    /** Predict the ports the frame schedule will claim in frame slot
        `fs`, marking them in next_in_/next_out_; returns true if any. */
    bool predictCbrBusy(int fs);

    /** Raise request wire (i,j) iff both ports are live and input i
        queues a VBR cell for output j; drop it otherwise. */
    void syncWire(PortId i, PortId j);

    /** Dequeue the VBR cell behind pairing (i,j), crossing in frame
        slot `fs` (ignored without a schedule), drop the pair's request
        wire if that emptied the VOQ, and log statistics. */
    void forwardVbr(int fs, PortId i, PortId j);

    /**
     * Compute a VBR matching into `out`, excluding the ports whose bits
     * are set in the given busy masks (`any_busy` false = all free).
     */
    void computeVbrMatch(const uint64_t* in_busy, const uint64_t* out_busy,
                         bool any_busy, Matching& out);

    /** Check `setting` against the dead ports, set the crossbar to it
        and send forwarded_[first..] across. */
    void crossFabric(const Matching& setting, size_t first);

    /** The FIFO input form's slot: run the contention rounds into
        vbr_match_, move each winner from its ring into forwarded_ in
        ascending input order, and cross the fabric. Returns the count
        of CBR-class cells among them. */
    int crossFifo();

    /** The slot's shared tail: the ledger over `departed`, then the
        slot-boundary probes; returns `departed`. */
    const std::vector<Cell>& closeSlot(SlotTime slot,
                                       const std::vector<Cell>& departed,
                                       int cbr_crossed, size_t n_cbr);

    /** Fill the recorder's VOQ/backlog scratch with the current queue
        state and commit one snapshot line for `slot`. */
    void takeSnapshot(obs::Recorder& rec, SlotTime slot) const;

    /** The virtual-clock stage, built only for that service: per output a
        PIFO (Sivaraman et al.), here a binary heap over a vector that
        keeps its capacity, plus per-flow rates and clocks. */
    struct VirtualClockStage
    {
        struct Ranked
        {
            Cell cell;
            double stamp;
            int64_t order;  ///< arrival order: FIFO among equal stamps

            /** Ranks later; with std::greater the heap top is first. */
            bool operator>(const Ranked& o) const
            {
                return std::tie(stamp, order) > std::tie(o.stamp, o.order);
            }
        };
        std::vector<std::vector<Ranked>> heaps;
        FlatMap<double> rates;   ///< registered flows only
        FlatMap<double> clocks;  ///< every flow seen
        double default_rate = 0.01;
        int64_t arrivals = 0;

        /** Stamp a cell from its flow's clock and queue it. */
        void push(const Cell& cell);
    };

    /** The FIFO input form: one ring per input, the contention engine,
        and each slot's scratch, all sized at construction. */
    struct FifoInputStage
    {
        FifoInputStage(int n, uint64_t seed, int window, int rounds);

        int window;
        int rounds;
        Xoshiro256 rng;
        std::vector<RingQueue<Cell>> queues;  ///< per input, FIFO order
        std::vector<int> cursor;     ///< queue position input i bids next
        std::vector<int> bidders;    ///< bids per output this round
        std::vector<PortId> last;    ///< output j's highest bidder
        std::vector<PortId> lower;   ///< bidder i's next-lower co-bidder
        std::vector<uint64_t> contended;  ///< outputs bid for this round
    };

    InputQueuedSwitch(const IqSwitchConfig& config,
                      std::unique_ptr<Matcher> matcher,
                      const FrameSchedule* cbr_schedule,
                      std::unique_ptr<FifoInputStage> fifo);

    IqSwitchConfig config_;
    std::unique_ptr<Matcher> matcher_;  ///< null: perfect fabric or FIFO
    std::unique_ptr<FifoInputStage> fifo_;  ///< the FIFO input form only
    const FrameSchedule* cbr_schedule_;
    std::vector<InputBuffer> vbr_bufs_;  ///< built only with a matcher
    std::vector<InputBuffer> cbr_bufs_;  ///< built only with a schedule
    Crossbar crossbar_;

    /** The output stage's FIFO rings: one per output under Fifo, one per
        output and class (class-major within an output) under Strict and
        Wrr; empty otherwise. */
    std::vector<RingQueue<Cell>> out_q_;
    std::unique_ptr<VirtualClockStage> vc_;

    // WRR state per output: the class the pointer rests on and the
    // credit it has left there.
    std::vector<uint8_t> wrr_cls_;
    std::vector<int32_t> wrr_credit_;

    /**
     * Requests for the VBR scheduler: wire (i,j) is raised while input
     * i's VBR buffer holds a cell for output j (every class, with the
     * output stage) and both ports are live. Raised in acceptCell,
     * dropped when a crossing cell empties the VOQ, and set again by
     * syncWire at a port flip or a rebind — never rebuilt.
     */
    RequestMatrix vbr_req_;
    /** vbr_req_ minus the CBR-claimed ports' rows and columns,
        rebuilt by assignMasked in each slot that serves CBR. */
    RequestMatrix masked_req_;

    // Per-slot scratch, reused so steady-state slots never allocate.
    int busy_words_;                   ///< words per port bitmask
    std::vector<uint64_t> in_busy_;    ///< inputs claimed by CBR
    std::vector<uint64_t> out_busy_;   ///< outputs claimed by CBR
    std::vector<uint64_t> next_in_;    ///< predicted busy, next slot
    std::vector<uint64_t> next_out_;   ///< predicted busy, next slot
    Matching vbr_match_;               ///< the slot's crossbar setting
    std::vector<Cell> forwarded_;      ///< cells crossing this slot
    std::vector<Cell> departed_;       ///< runSlot return (output stage)

    /** Pipelined mode: the matching precomputed for the next slot (empty
        before the first slot and after a rebind). */
    Matching pending_vbr_;

    // Fault state: the dead-port bitmasks, the switch's only record of
    // liveness, plus the always-on conservation ledger.
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
