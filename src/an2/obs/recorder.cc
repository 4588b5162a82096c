#include "an2/obs/recorder.h"

#include <algorithm>

#include "an2/base/error.h"
#include "an2/obs/snapshot.h"

namespace an2::obs {

#ifndef AN2_OBS_DISABLED

namespace detail {
thread_local constinit Recorder* tls_recorder = nullptr;
}  // namespace detail

void
attach(Recorder* r)
{
    detail::tls_recorder = r;
}

void
detach()
{
    detail::tls_recorder = nullptr;
}

#endif  // AN2_OBS_DISABLED

const char*
counterName(Counter c)
{
    switch (c) {
      case Counter::SlotsRun:             return "slots_run";
      case Counter::CellsEnqueued:        return "cells_enqueued";
      case Counter::CellsDequeued:        return "cells_dequeued";
      case Counter::CbrCellsForwarded:    return "cbr_cells_forwarded";
      case Counter::MatchIterations:      return "match_iterations";
      case Counter::ProductiveIterations: return "productive_iterations";
      case Counter::RequestsSeen:         return "requests_seen";
      case Counter::GrantsIssued:         return "grants_issued";
      case Counter::AcceptsIssued:        return "accepts_issued";
      case Counter::KeepGrantRetained:    return "keep_grant_retained";
      case Counter::CbrMaskedInputs:      return "cbr_masked_inputs";
      case Counter::CbrMaskedOutputs:     return "cbr_masked_outputs";
      case Counter::SnapshotsTaken:       return "snapshots_taken";
      case Counter::FaultEvents:          return "fault_events";
      case Counter::CellsDroppedByFaults: return "cells_dropped_by_faults";
      case Counter::CellsCorrupted:       return "cells_corrupted";
      case Counter::CbrReservationsRevoked:
          return "cbr_reservations_revoked";
      case Counter::CbrReservationsRebooked:
          return "cbr_reservations_rebooked";
      case Counter::RouteLookups:         return "route_lookups";
      case Counter::EcmpReroutes:         return "ecmp_reroutes";
      case Counter::ShardWindows:         return "shard_windows";
      case Counter::MatchEdgesReused:     return "match_edges_reused";
      case Counter::MatchEdgesRepaired:   return "match_edges_repaired";
      case Counter::WarmStartFullReuses:  return "warm_start_full_reuses";
      case Counter::CellsDelivered:       return "cells_delivered";
      case Counter::TraceEventsDropped:   return "trace_events_dropped";
      case Counter::MetricsSamples:       return "metrics_samples";
      case Counter::BlackboxDumps:        return "blackbox_dumps";
      case Counter::CbrRestorations:      return "cbr_restorations";
      case Counter::CbrRestoreRetries:    return "cbr_restore_retries";
      case Counter::CbrAbandoned:         return "cbr_abandoned";
      case Counter::SpeedupPhases:        return "speedup_phases";
      case Counter::CbrCellsDelivered:    return "cbr_cells_delivered";
      case Counter::VbrCellsDelivered:    return "vbr_cells_delivered";
      case Counter::BeCellsDelivered:     return "be_cells_delivered";
      case Counter::kCount:               break;
    }
    return "unknown";
}

const char*
gaugeName(Gauge g)
{
    switch (g) {
      case Gauge::BufferedCells:  return "buffered_cells";
      case Gauge::LastMatchSize:  return "last_match_size";
      case Gauge::OutputQueueHwm: return "output_queue_hwm";
      case Gauge::kCount:         break;
    }
    return "unknown";
}

Recorder::Recorder(const RecorderConfig& config)
    : counters_(static_cast<size_t>(Counter::kCount), 0),
      gauges_(static_cast<size_t>(Gauge::kCount), 0),
      capacity_(config.trace_capacity),
      snapshot_every_(config.snapshot_every),
      ports_(config.ports),
      track_latency_(config.track_latency),
      metrics_every_(config.metrics_every)
{
    AN2_REQUIRE(config.max_iterations > 0,
                "iterations histogram needs at least one bin");
    AN2_REQUIRE(config.snapshot_every >= 0,
                "snapshot period must be non-negative");
    AN2_REQUIRE(config.ports >= 0, "ports must be non-negative");
    AN2_REQUIRE(config.snapshot_every == 0 || config.ports > 0,
                "snapshots need the switch size (RecorderConfig::ports)");
    AN2_REQUIRE(config.metrics_every >= 0,
                "metrics period must be non-negative");
    AN2_REQUIRE(config.metrics_every == 0 || config.metrics_capacity > 0,
                "metrics sampling needs a non-empty ring");
    if (track_latency_ && ports_ > 0)
        lat_port_.assign(static_cast<size_t>(kNumTrafficClasses) *
                             static_cast<size_t>(ports_),
                         LogHistogram{});
    if (metrics_every_ > 0)
        metrics_ = TimeSeries(metrics_every_, config.metrics_capacity);
    ring_.resize(capacity_);
    iter_hist_.assign(static_cast<size_t>(config.max_iterations), 0);
    if (ports_ > 0) {
        match_hist_.assign(static_cast<size_t>(ports_) + 1, 0);
        voq_.assign(static_cast<size_t>(ports_) *
                        static_cast<size_t>(ports_),
                    0);
        backlog_.assign(static_cast<size_t>(ports_), 0);
    }
}

Recorder::~Recorder()
{
    if (current() == this)
        detach();
}

const Event&
Recorder::event(size_t k) const
{
    AN2_REQUIRE(k < size_, "event index out of range");
    return ring_[(head_ + k) % capacity_];
}

void
Recorder::record(EventType type, MatchAlg alg, uint16_t iter, int32_t a,
                 int32_t b, int32_t c, int32_t d)
{
    if (capacity_ == 0)
        return;
    size_t pos;
    if (size_ < capacity_) {
        pos = (head_ + size_) % capacity_;
        ++size_;
    } else {
        // Full: overwrite the oldest (drop-oldest keeps the most recent
        // window, which is what a post-mortem wants).
        pos = head_;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
        add(Counter::TraceEventsDropped, 1);
    }
    Event& e = ring_[pos];
    e.slot = slot_;
    e.a = a;
    e.b = b;
    e.c = c;
    e.d = d;
    e.type = type;
    e.alg = static_cast<uint8_t>(alg);
    e.iter = iter;
}

void
Recorder::beginSlot(SlotTime slot)
{
    // Sample at the *start* of a window-boundary slot so the sample
    // covers everything through the previous slot, including deliveries
    // the driver records after runSlot() returns.
    if (metrics_every_ > 0 && slot > 0 && slot % metrics_every_ == 0)
        sampleMetricsNow(slot);
    slot_ = slot;
    slot_productive_iters_ = 0;
    record(EventType::SlotBegin, MatchAlg::Pim, 0, 0, 0, 0, 0);
}

void
Recorder::endSlot(int forwarded, int cbr_forwarded, int match_size)
{
    add(Counter::SlotsRun, 1);
    set(Gauge::LastMatchSize, match_size);
    size_t ibin = std::min<size_t>(
        static_cast<size_t>(std::max(slot_productive_iters_, 0)),
        iter_hist_.size() - 1);
    ++iter_hist_[ibin];
    if (!match_hist_.empty()) {
        size_t mbin = std::min<size_t>(
            static_cast<size_t>(std::max(match_size, 0)),
            match_hist_.size() - 1);
        ++match_hist_[mbin];
    }
    record(EventType::SlotEnd, MatchAlg::Pim, 0, forwarded, cbr_forwarded,
           match_size, 0);
}

void
Recorder::matchIteration(MatchAlg alg, int iter, int requests, int grants,
                         int accepts, int matched_total)
{
    add(Counter::MatchIterations, 1);
    add(Counter::RequestsSeen, requests);
    add(Counter::GrantsIssued, grants);
    add(Counter::AcceptsIssued, accepts);
    add(Counter::KeepGrantRetained, matched_total - accepts);
    if (accepts > 0) {
        add(Counter::ProductiveIterations, 1);
        ++slot_productive_iters_;
    }
    record(EventType::MatchIter, alg, static_cast<uint16_t>(iter), requests,
           grants, accepts, matched_total);
}

void
Recorder::cbrMasked(int masked_inputs, int masked_outputs)
{
    add(Counter::CbrMaskedInputs, masked_inputs);
    add(Counter::CbrMaskedOutputs, masked_outputs);
    record(EventType::CbrMask, MatchAlg::Pim, 0, masked_inputs,
           masked_outputs, 0, 0);
}

void
Recorder::faultEvent(int kind, int target)
{
    add(Counter::FaultEvents, 1);
    record(EventType::Fault, MatchAlg::Pim, 0, kind, target, 0, 0);
}

void
Recorder::cellEnqueued(const Cell& cell)
{
    add(Counter::CellsEnqueued, 1);
    record(EventType::Enqueue, MatchAlg::Pim, 0, cell.input, cell.output,
           cell.flow, static_cast<int32_t>(cell.seq));
}

void
Recorder::cellDequeued(const Cell& cell)
{
    add(Counter::CellsDequeued, 1);
    if (track_latency_)
        hop_class_[static_cast<size_t>(cell.cls)].add(
            std::max<int64_t>(slot_ - cell.arrival_slot, 0));
    record(EventType::Dequeue, MatchAlg::Pim, 0, cell.input, cell.output,
           cell.flow, static_cast<int32_t>(cell.seq));
}

void
Recorder::latencySample(TrafficClass cls, PortId output, int64_t delay_slots)
{
    add(Counter::CellsDelivered, 1);
    // Per-class delivery counters sit contiguously after
    // CbrCellsDelivered in TrafficClass order.
    add(static_cast<Counter>(
            static_cast<int>(Counter::CbrCellsDelivered) +
            static_cast<int>(cls)),
        1);
    if (!track_latency_)
        return;
    int64_t d = std::max<int64_t>(delay_slots, 0);
    lat_class_[static_cast<size_t>(cls)].add(d);
    if (!lat_port_.empty() && output >= 0 && output < ports_)
        lat_port_[static_cast<size_t>(cls) * static_cast<size_t>(ports_) +
                  static_cast<size_t>(output)]
            .add(d);
}

const LogHistogram*
Recorder::portLatencyHistogram(TrafficClass cls, PortId output) const
{
    if (lat_port_.empty() || output < 0 || output >= ports_)
        return nullptr;
    return &lat_port_[static_cast<size_t>(cls) *
                          static_cast<size_t>(ports_) +
                      static_cast<size_t>(output)];
}

namespace {

/** Fill one per-class summary from a histogram. */
void
summarize(const LogHistogram& h, LatencySummary& out)
{
    out.count = h.count();
    out.p50 = h.quantile(0.50);
    out.p99 = h.quantile(0.99);
    out.p999 = h.quantile(0.999);
    out.max = h.max();
}

}  // namespace

void
Recorder::sampleMetricsNow(SlotTime slot)
{
    if (!metrics_.enabled() || slot == last_sample_slot_)
        return;
    last_sample_slot_ = slot;
    add(Counter::MetricsSamples, 1);
    MetricsSample& s = sample_scratch_;
    s.slot = slot;
    s.dropped_samples = metrics_.dropped();
    for (size_t c = 0; c < kNumCounters; ++c)
        s.counters[c] = counters_[c];
    for (size_t g = 0; g < kNumGauges; ++g)
        s.gauges[g] = gauges_[g];
    for (size_t cls = 0; cls < static_cast<size_t>(kNumTrafficClasses);
         ++cls) {
        summarize(lat_class_[cls], s.latency[cls]);
        summarize(hop_class_[cls], s.hop_delay[cls]);
    }
    metrics_.push(s);
}

void
Recorder::commitSnapshot(SlotTime slot, int buffered_cells)
{
    AN2_REQUIRE(snapshotsEnabled(), "snapshots were not configured");
    add(Counter::SnapshotsTaken, 1);
    snapshot_jsonl_ +=
        snapshotLine(slot, ports_, voq_.data(), backlog_.data(),
                     buffered_cells, match_hist_);
}

}  // namespace an2::obs
