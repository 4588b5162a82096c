/**
 * @file
 * Measurement plumbing for the switch simulations: queueing delay,
 * per-connection and per-flow throughput, buffer occupancy.
 */
#ifndef AN2_SIM_METRICS_H
#define AN2_SIM_METRICS_H

#include <cstdint>
#include <map>

#include "an2/base/flat_map.h"
#include "an2/base/matrix.h"
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
     * @param ports Switch size N; per-connection counts are kept in a
     *        dense N x N matrix (a map lookup per delivered cell was the
     *        collector's hot path).
     * @param delay_hist_bins Number of 1-slot histogram bins for delay
     *        quantiles; delays beyond this land in the overflow bucket.
     */
    MetricsCollector(SlotTime warmup_slots, int ports,
                     int delay_hist_bins = 16384);

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

    /** Delay quantile (e.g. 0.99) in slots. */
    double delayQuantile(double q) const { return delay_hist_.quantile(q); }

    /** Full delay statistics. */
    const RunningStats& delayStats() const { return delay_; }

    /** Largest total buffer occupancy observed. */
    int maxOccupancy() const { return max_occupancy_; }

    /**
     * Measured cells delivered per (input, output) connection, as a
     * dense ports x ports matrix indexed [input][output].
     */
    const Matrix<int64_t>& deliveredPerConnection() const
    {
        return per_connection_;
    }

    /** Measured cells delivered per flow (materialized per call). */
    std::map<FlowId, int64_t> deliveredPerFlow() const
    {
        return per_flow_.toMap();
    }

    /** First slot at which measurement starts. */
    SlotTime warmupSlots() const { return warmup_; }

  private:
    static int checkPorts(int ports);

    SlotTime warmup_;
    int64_t injected_ = 0;
    int64_t delivered_ = 0;
    RunningStats delay_;
    Histogram delay_hist_;
    int max_occupancy_ = 0;
    Matrix<int64_t> per_connection_;
    /**
     * Per-flow delivery counts in a presized flat table: incrementing a
     * flow seen before costs no allocation (a std::map here allocated a
     * node on first touch of each flow mid-run). Sized for ~2 flows per
     * connection; rarer populations rehash once and stay flat after.
     */
    FlatMap<int64_t> per_flow_;
};

}  // namespace an2

#endif  // AN2_SIM_METRICS_H
