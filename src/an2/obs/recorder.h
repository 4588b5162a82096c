/**
 * @file
 * The observation sink behind the probe layer: a counter/gauge registry,
 * a fixed-capacity binary event ring (drop-oldest), per-slot convergence
 * and match-size histograms, and periodic state snapshots.
 *
 * Everything touched from the switch hot loop is preallocated in the
 * constructor; beginSlot/endSlot/matchIteration/cell events perform no
 * heap allocation (proved by tests/zero_alloc_test.cc with a recorder
 * attached). Snapshot serialization is the one exception — it appends
 * JSON lines to a string — and runs only every `snapshot_every` slots
 * when explicitly enabled.
 */
#ifndef AN2_OBS_RECORDER_H
#define AN2_OBS_RECORDER_H

#include <cstdint>
#include <string>
#include <vector>

#include "an2/base/stats.h"
#include "an2/base/types.h"
#include "an2/cell/cell.h"
#include "an2/obs/probe.h"
#include "an2/obs/timeseries.h"

namespace an2::obs {

/** Construction-time sizing for a Recorder. */
struct RecorderConfig
{
    /** Event-ring capacity in events; 0 disables event tracing (counters
        and histograms still accumulate). Oldest events are dropped once
        full; droppedEvents() reports how many. */
    size_t trace_capacity = 0;

    /** Emit a state snapshot every K slots (at slots K-1, 2K-1, ...);
        0 disables snapshots. Requires `ports`. */
    int snapshot_every = 0;

    /** Switch size N; sizes the snapshot VOQ matrix and the match-size
        histogram. Required when snapshot_every > 0. */
    int ports = 0;

    /** Bins of the iterations-to-convergence histogram (counts clamp
        into the last bin). */
    int max_iterations = 64;

    /** Track delivery-latency and per-hop-delay histograms (log-linear,
        keyed by traffic class; per-output-port breakdowns additionally
        require `ports`). All bins preallocate here. */
    bool track_latency = false;

    /** Sample all counters/gauges/latency quantiles into the metrics
        ring at every slot S > 0 with S %% metrics_every == 0 (i.e. at
        window boundaries); 0 disables the time series. */
    int metrics_every = 0;

    /** Metrics-ring capacity in samples (drop-oldest once full). */
    size_t metrics_capacity = 4096;
};

/** Collects probe output for one observed thread. */
class Recorder
{
  public:
    Recorder() : Recorder(RecorderConfig{}) {}
    explicit Recorder(const RecorderConfig& config);

    /** Detaches itself if still the thread's current recorder. */
    ~Recorder();

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    // ---- counters and gauges -------------------------------------------

    void add(Counter c, int64_t delta)
    {
        counters_[static_cast<size_t>(c)] += delta;
    }

    void set(Gauge g, int64_t value)
    {
        gauges_[static_cast<size_t>(g)] = value;
    }

    int64_t counter(Counter c) const
    {
        return counters_[static_cast<size_t>(c)];
    }

    int64_t gauge(Gauge g) const
    {
        return gauges_[static_cast<size_t>(g)];
    }

    // ---- slot lifecycle (called by the switch) --------------------------

    /** Mark the start of `slot`; stamps subsequent events. */
    void beginSlot(SlotTime slot);

    /**
     * Mark the end of the current slot.
     * @param forwarded Cells that crossed the fabric this slot.
     * @param cbr_forwarded CBR subset of `forwarded`.
     * @param match_size Size of the slot's VBR matching.
     */
    void endSlot(int forwarded, int cbr_forwarded, int match_size);

    /** Slot stamped on new events (-1 before the first beginSlot). */
    SlotTime currentSlot() const { return slot_; }

    // ---- matcher probes --------------------------------------------------

    /**
     * Record one request/grant/accept iteration. `matched_total` is the
     * matching size after the iteration; `matched_total - accepts` is
     * the keep-grant retention (matches held from earlier iterations).
     */
    void matchIteration(MatchAlg alg, int iter, int requests, int grants,
                        int accepts, int matched_total);

    /** Record CBR frame-reservation masking of the VBR request matrix. */
    void cbrMasked(int masked_inputs, int masked_outputs);

    // ---- fault probes ----------------------------------------------------

    /** Record one applied fault event (`kind` is a fault::FaultKind). */
    void faultEvent(int kind, int target);

    // ---- queue probes ----------------------------------------------------

    void cellEnqueued(const Cell& cell);
    void cellDequeued(const Cell& cell);

    // ---- latency probes --------------------------------------------------

    /**
     * Record one end-to-end delivery: counts CellsDelivered always and,
     * when latency tracking is on, adds `delay_slots` to the class (and,
     * if `output` is in [0, ports), the per-output) histogram.
     */
    void latencySample(TrafficClass cls, PortId output, int64_t delay_slots);

    /** Delivery of `cell` at `slot` (delay = slot - inject_slot). */
    void cellDelivered(const Cell& cell, SlotTime slot)
    {
        latencySample(cell.cls, cell.output, slot - cell.inject_slot);
    }

    bool latencyEnabled() const { return track_latency_; }

    /** End-to-end delivery latency per class (empty when untracked). */
    const LogHistogram& latencyHistogram(TrafficClass cls) const
    {
        return lat_class_[static_cast<size_t>(cls)];
    }

    /** Per-output delivery latency, or nullptr when per-port tracking is
        unavailable (latency untracked, ports == 0, or out of range). */
    const LogHistogram* portLatencyHistogram(TrafficClass cls,
                                             PortId output) const;

    /** Per-hop queueing delay (dequeue slot - arrival slot) per class. */
    const LogHistogram& hopDelayHistogram(TrafficClass cls) const
    {
        return hop_class_[static_cast<size_t>(cls)];
    }

    // ---- metrics time series ---------------------------------------------

    bool metricsEnabled() const { return metrics_.enabled(); }

    const TimeSeries& metrics() const { return metrics_; }

    /**
     * Take one sample stamped `slot` right now. beginSlot() calls this
     * at window boundaries; callers invoke it directly after a run to
     * flush the final partial window. Duplicate slots are ignored, so
     * flushing after an exact boundary is harmless.
     */
    void sampleMetricsNow(SlotTime slot);

    // ---- event ring ------------------------------------------------------

    bool tracing() const { return capacity_ > 0; }

    /** Events currently retained (<= capacity). */
    size_t eventCount() const { return size_; }

    /** The k-th oldest retained event, k in [0, eventCount()). */
    const Event& event(size_t k) const;

    /** Events overwritten because the ring was full. */
    int64_t droppedEvents() const { return dropped_; }

    // ---- histograms ------------------------------------------------------

    /**
     * Histogram of productive matcher iterations per completed slot
     * (index = iterations that added a match; the paper's
     * iterations-to-convergence distribution when the matcher runs to
     * completion). Final bin also holds all larger counts.
     */
    const std::vector<int64_t>& iterationsPerSlotHistogram() const
    {
        return iter_hist_;
    }

    /** Histogram of VBR match size per completed slot (index = size,
        sized ports+1; empty when ports == 0). */
    const std::vector<int64_t>& matchSizeHistogram() const
    {
        return match_hist_;
    }

    // ---- snapshots -------------------------------------------------------

    bool snapshotsEnabled() const { return snapshot_every_ > 0; }

    /** True when the switch should fill and commit a snapshot at `slot`. */
    bool snapshotDue(SlotTime slot) const
    {
        return snapshot_every_ > 0 &&
               (slot + 1) % snapshot_every_ == 0;
    }

    int ports() const { return ports_; }

    /** VOQ occupancy scratch (ports x ports, row-major by input); the
        switch fills every entry before commitSnapshot(). */
    int32_t* voqMatrix() { return voq_.data(); }

    /** Per-output backlog scratch (ports entries). */
    int32_t* outputBacklog() { return backlog_.data(); }

    /** Serialize the filled scratch as one an2.snapshot.v1 JSON line. */
    void commitSnapshot(SlotTime slot, int buffered_cells);

    /** Accumulated snapshot JSON lines (one document per line). */
    const std::string& snapshotLines() const { return snapshot_jsonl_; }

  private:
    void record(EventType type, MatchAlg alg, uint16_t iter, int32_t a,
                int32_t b, int32_t c, int32_t d);

    std::vector<int64_t> counters_;
    std::vector<int64_t> gauges_;

    std::vector<Event> ring_;
    size_t capacity_ = 0;
    size_t head_ = 0;  ///< index of the oldest retained event
    size_t size_ = 0;
    int64_t dropped_ = 0;

    SlotTime slot_ = -1;
    int slot_productive_iters_ = 0;
    std::vector<int64_t> iter_hist_;
    std::vector<int64_t> match_hist_;

    int snapshot_every_ = 0;
    int ports_ = 0;
    std::vector<int32_t> voq_;
    std::vector<int32_t> backlog_;
    std::string snapshot_jsonl_;

    bool track_latency_ = false;
    std::array<LogHistogram, kNumTrafficClasses> lat_class_;  ///< by class
    std::array<LogHistogram, kNumTrafficClasses> hop_class_;  ///< by class
    /** Per-output latency, class-major (kNumTrafficClasses * ports
        entries); empty unless track_latency and ports > 0. */
    std::vector<LogHistogram> lat_port_;

    int metrics_every_ = 0;
    TimeSeries metrics_;
    SlotTime last_sample_slot_ = -1;
    MetricsSample sample_scratch_;
};

// ---- inline probe helpers (the instrumented-code entry points) -----------
//
// Each helper is one current() load and one branch when unattached;
// under AN2_OBS_DISABLED current() is a constant nullptr and the helper
// disappears entirely. Probe arguments that are costly to derive must be
// computed behind an explicit current() check at the call site instead.

inline void
count(Counter c, int64_t delta = 1)
{
    if (Recorder* r = current())
        r->add(c, delta);
}

inline void
setGauge(Gauge g, int64_t value)
{
    if (Recorder* r = current())
        r->set(g, value);
}

inline void
slotBegin(SlotTime slot)
{
    if (Recorder* r = current())
        r->beginSlot(slot);
}

inline void
slotEnd(int forwarded, int cbr_forwarded, int match_size)
{
    if (Recorder* r = current())
        r->endSlot(forwarded, cbr_forwarded, match_size);
}

inline void
cellEnqueued(const Cell& cell)
{
    if (Recorder* r = current())
        r->cellEnqueued(cell);
}

inline void
cellDequeued(const Cell& cell)
{
    if (Recorder* r = current())
        r->cellDequeued(cell);
}

inline void
faultEvent(int kind, int target)
{
    if (Recorder* r = current())
        r->faultEvent(kind, target);
}

inline void
cellDelivered(const Cell& cell, SlotTime slot)
{
    if (Recorder* r = current())
        r->cellDelivered(cell, slot);
}

inline void
latencySample(TrafficClass cls, PortId output, int64_t delay_slots)
{
    if (Recorder* r = current())
        r->latencySample(cls, output, delay_slots);
}

}  // namespace an2::obs

#endif  // AN2_OBS_RECORDER_H
