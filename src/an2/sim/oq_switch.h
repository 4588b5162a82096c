/**
 * @file
 * Perfect output queueing — the optimal-performance reference (paper
 * §2.4/§3.5). The fabric is assumed to have enough internal bandwidth to
 * deliver any number of simultaneous arrivals to an output's queue, so a
 * cell is delayed only by other cells bound for the same output link.
 * Infeasible to build at gigabit speeds, but the lower envelope every
 * scheduling algorithm is measured against in Figures 3 and 4.
 */
#ifndef AN2_SIM_OQ_SWITCH_H
#define AN2_SIM_OQ_SWITCH_H

#include <vector>

#include "an2/base/ring.h"
#include "an2/fault/invariants.h"
#include "an2/sim/switch.h"

namespace an2 {

/** Ideal output-queued switch: N-speedup fabric, FIFO output queues. */
class OutputQueuedSwitch final : public SwitchModel
{
  public:
    explicit OutputQueuedSwitch(int n);

    void acceptCell(const Cell& cell) override;
    const std::vector<Cell>& runSlot(SlotTime slot) override;
    int bufferedCells() const override;
    std::string name() const override { return "OutputQueued"; }
    int size() const override { return n_; }

    void setInputPortLive(PortId i, bool live) override;
    void setOutputPortLive(PortId j, bool live) override;
    bool inputPortLive(PortId i) const override;
    bool outputPortLive(PortId j) const override;
    int64_t droppedCells() const override { return checker_.dropped(); }

    /** The per-slot invariant ledger (conservation totals). */
    const fault::InvariantChecker& invariants() const { return checker_; }

  private:
    int n_;
    std::vector<RingQueue<Cell>> queues_;
    std::vector<Cell> departed_;  ///< runSlot return buffer, reused

    // Fault state: a dead output stops draining (its queue holds until
    // revival); arrivals touching a dead port are dropped on entry.
    std::vector<uint8_t> in_live_;
    std::vector<uint8_t> out_live_;
    bool any_dead_ = false;
    fault::InvariantChecker checker_;
};

}  // namespace an2

#endif  // AN2_SIM_OQ_SWITCH_H
