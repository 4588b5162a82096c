/**
 * @file
 * Deterministic network-level metrics time series.
 *
 * The single-switch metrics ring samples an attached Recorder; a LAN run
 * has no per-thread recorder to sample (the engine's shard workers are
 * observation-free by design). Instead, the series samples LanStats at
 * *nominal wall-time barriers*: runLanWithMetrics() drives Lan::run() in
 * segments of `every_slots` nominal slots and records the cumulative
 * totals after each segment. Lan::run() is byte-identical on every
 * shard count — segment boundaries are full barriers on all of them —
 * so the exported `an2.metrics.v1` document is byte-identical for any
 * thread count, fault plan or not. That property is pinned by
 * the shard-merge identity test and the netscale CI check.
 */
#ifndef AN2_TOPO_NET_METRICS_H
#define AN2_TOPO_NET_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "an2/topo/lan.h"

namespace an2::topo {

/** One cumulative LanStats observation at a slot barrier. */
struct LanMetricsSample
{
    SlotTime slot = 0;
    LanStats stats;
};

/** Accumulates LAN samples and serializes an2.metrics.v1 documents. */
class LanMetricsSeries
{
  public:
    /** @param every_slots Sampling period in nominal slots (> 0). */
    explicit LanMetricsSeries(int64_t every_slots);

    int64_t everySlots() const { return every_slots_; }

    /** Record the cumulative `stats` observed at `slot`. */
    void sample(SlotTime slot, const LanStats& stats);

    size_t size() const { return samples_.size(); }

    const LanMetricsSample& at(size_t k) const { return samples_[k]; }

    /** All samples as an2.metrics.v1 JSON lines (source "lan"). */
    std::string toJsonLines() const;

    /** Prometheus-style exposition of the newest sample. */
    std::string toPrometheus() const;

  private:
    int64_t every_slots_;
    std::vector<LanMetricsSample> samples_;
};

/**
 * Run `lan` for `frames` switch frames on `threads` engine threads,
 * sampling into `series` every series.everySlots() nominal slots (plus
 * a final sample at the end when the total is not a period multiple).
 */
void runLanWithMetrics(Lan& lan, int64_t frames, int threads,
                       LanMetricsSeries& series);

}  // namespace an2::topo

#endif  // AN2_TOPO_NET_METRICS_H
