/**
 * @file
 * Measurement plumbing for the switch simulations: queueing delay,
 * delivered cells, buffer occupancy.
 */
#ifndef AN2_SIM_METRICS_H
#define AN2_SIM_METRICS_H

#include <cstdint>

#include "an2/base/stats.h"
#include "an2/base/types.h"
#include "an2/cell/cell.h"

namespace an2 {

/** Collects simulation measurements after a configurable warmup. */
class MetricsCollector
{
  public:
    /**
     * @param warmup_slots Cells injected before this slot are ignored,
     *        eliminating the initial transient (paper §3.5 does the same).
     */
    explicit MetricsCollector(SlotTime warmup_slots);

    /** The older form: also checks that the switch size N is positive,
        which nothing else reads. Kept for the benchmark harness. */
    MetricsCollector(SlotTime warmup_slots, int ports);

    /** Record a cell injected into the switch. */
    void noteInjected(const Cell& cell);

    /** Record a cell delivered from output `output` at slot `slot`. */
    void noteDelivered(const Cell& cell, SlotTime slot);

    /** Record total buffered cells at a slot boundary. */
    void noteOccupancy(int buffered_cells);

    /** Cells injected after warmup. */
    int64_t injected() const { return injected_; }

    /** Cells delivered after warmup (regardless of injection time). */
    int64_t delivered() const { return delivered_; }

    /** Mean queueing delay in slots over measured cells. */
    double meanDelay() const { return delay_.mean(); }

    /**
     * Delay quantile (e.g. 0.99) in slots: the lower bound of the
     * LogHistogram bin holding the ceil(q * n)-th smallest delay, so
     * exact below 64 slots and at most 1/32 low above; 0 when empty.
     */
    double delayQuantile(double q) const
    {
        return static_cast<double>(delay_hist_.quantile(q));
    }

    /** Full delay statistics. */
    const RunningStats& delayStats() const { return delay_; }

    /** Largest total buffer occupancy observed. */
    int maxOccupancy() const { return max_occupancy_; }

  private:
    SlotTime warmup_;
    int64_t injected_ = 0;
    int64_t delivered_ = 0;
    RunningStats delay_;
    LogHistogram delay_hist_;
    int max_occupancy_ = 0;
};

}  // namespace an2

#endif  // AN2_SIM_METRICS_H
