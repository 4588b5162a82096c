/**
 * @file
 * Input-queued switch with per-input FIFO buffers — the head-of-line
 * blocking baseline of Figures 1 and 3 (paper §2.4).
 *
 * Only the cell at the head of each input FIFO is eligible each slot
 * (window = 1); contention for an output is resolved uniformly at random.
 * A window w > 1 models the Hui & Arthurs / Karol iterative scheme in
 * which an input that loses a round bids its next queued cell, which
 * mitigates — but cannot eliminate — HOL blocking.
 */
#ifndef AN2_SIM_FIFO_SWITCH_H
#define AN2_SIM_FIFO_SWITCH_H

#include <cstdint>
#include <deque>
#include <memory>

#include "an2/base/rng.h"
#include "an2/fabric/crossbar.h"
#include "an2/fault/invariants.h"
#include "an2/sim/switch.h"

namespace an2 {

/** FIFO-input-queued switch with optional lookahead window. */
class FifoSwitch final : public SwitchModel
{
  public:
    /**
     * @param n Ports.
     * @param seed PRNG seed for contention resolution.
     * @param window Queue positions eligible per slot (1 = strict FIFO).
     * @param rounds Contention rounds per slot (>= 1; ignored beyond the
     *        window since a loser needs a next cell to bid).
     */
    FifoSwitch(int n, uint64_t seed, int window = 1, int rounds = 1);

    void acceptCell(const Cell& cell) override;
    const std::vector<Cell>& runSlot(SlotTime slot) override;
    int bufferedCells() const override;
    std::string name() const override;
    int size() const override { return n_; }

    void setInputPortLive(PortId i, bool live) override;
    void setOutputPortLive(PortId j, bool live) override;
    bool inputPortLive(PortId i) const override;
    bool outputPortLive(PortId j) const override;
    int64_t droppedCells() const override { return checker_.dropped(); }

    /** Occupancy of the FIFOs, by input and destination. */
    void fillOccupancy(int32_t* voq, int32_t* backlog) const override;

    /** The per-slot invariant ledger (conservation totals). */
    const fault::InvariantChecker& invariants() const { return checker_; }

  private:
    int n_;
    int window_;
    int rounds_;
    std::vector<std::deque<Cell>> queues_;
    Crossbar crossbar_;
    Xoshiro256 rng_;
    std::vector<Cell> departed_;  ///< runSlot return buffer, reused

    // Fault state. A dead input exposes nothing; a head-of-line cell for
    // a dead output blocks the cells behind it (FIFO HOL semantics — the
    // exposed window is truncated at the first dead-output cell).
    std::vector<uint64_t> dead_in_;
    std::vector<uint64_t> dead_out_;
    bool any_dead_ = false;
    fault::InvariantChecker checker_;
};

}  // namespace an2

#endif  // AN2_SIM_FIFO_SWITCH_H
