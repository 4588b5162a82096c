/**
 * @file
 * Declarative experiment sweeps over whole networks (topo::Lan), the
 * LAN-scale sibling of an2/harness/sweep.h.
 *
 * A NetSweepSpec names the axes — topologies and offered VBR loads —
 * plus a traffic pattern, replicate count, and the run length in switch
 * frames. Every run's seeds derive from the base seed and the run's
 * grid index through the harness's splitmix64 scheme, and the engine's
 * shard count never enters any result: the emitted an2.netsweep.v1
 * document is byte-identical on any shard count, with or without a
 * fault plan.
 */
#ifndef AN2_TOPO_NET_SWEEP_H
#define AN2_TOPO_NET_SWEEP_H

#include <functional>
#include <string>
#include <vector>

#include "an2/fault/chaos.h"
#include "an2/fault/fault_plan.h"
#include "an2/fault/restoration.h"
#include "an2/harness/aggregate.h"
#include "an2/topo/lan.h"
#include "an2/topo/topology.h"

namespace an2::topo {

/** One topology under comparison (axis 1). */
struct NetTopoSpec
{
    /** Display name, e.g. "fat-tree(16)"; lands in tables and JSON. */
    std::string name;

    std::function<Topology()> make;
};

/** Declarative description of a network-scale sweep. */
struct NetSweepSpec
{
    /** Experiment identifier, e.g. "netscale"; lands in the JSON meta. */
    std::string name;

    /** One-line description for reports. */
    std::string description;

    /** Traffic-matrix pattern every run places. */
    Pattern pattern = Pattern::Uniform;

    /** Topologies to compare (axis 1). */
    std::vector<NetTopoSpec> topos;

    /** Offered VBR rates, cells/slot per placed flow (axis 2). */
    std::vector<double> loads;

    /** Independent replicates per (topo, load) cell (axis 3). */
    int replicates = 1;

    /** Root of the deterministic seed derivation. */
    uint64_t base_seed = 1;

    /** Switch frames of nominal wall time per run. */
    int64_t frames = 20;

    /** Also reserve a CBR matrix of this many cells/frame (0 = none). */
    int cbr_cells_per_frame = 1;

    /** Slot duration, frame length, controller padding. */
    NetworkConfig net;

    /** Per-node clock error bound and phase jitter (see LanConfig). */
    double max_clock_error = 1e-4;
    bool phase_jitter = true;

    /** PIM iterations for every switch's VBR matcher. */
    int pim_iterations = 4;

    /**
     * Link fault scenario applied identically to every run (empty =
     * none). Targets are network link indices; scripted link events
     * only. Each run revalidates the plan against its topology.
     */
    fault::FaultPlan faults;

    /**
     * Seeded chaos churn (empty = none): expanded per run into a
     * concrete scripted FaultPlan against the run's own topology, over
     * the run's nominal horizon. The expansion depends only on the spec
     * and the topology, so the same grid point replays byte-identically
     * on any engine/thread count.
     */
    fault::ChaosSpec chaos;

    /**
     * Drive every run with a CBR PathRestorer (revoke / re-route /
     * re-admit with retry+backoff). The policy's seed, when left 0, is
     * derived per run as runSeed(base_seed, run_index, 2).
     */
    bool restore = false;
    fault::RestorePolicy restore_policy;
};

/** Aggregated results for one (topo, load) grid cell. */
struct NetCellSummary
{
    std::string topo;
    double load = 0.0;
    int replicates = 0;

    /** delivered / injected per replicate. */
    harness::Aggregate throughput;
    harness::Aggregate mean_wall_latency_ps;
    harness::Aggregate mean_adjusted_latency_ps;

    /** Totals across replicates. */
    int64_t injected = 0;
    int64_t delivered = 0;
    int64_t vbr_dropped = 0;

    /** Fault totals across replicates (JSON only under a fault plan). */
    int64_t reroutes = 0;
    int64_t unroutable = 0;
    int64_t link_lost = 0;

    /** Restoration totals across replicates (JSON only when
        spec.restore is set). */
    int64_t cbr_restored = 0;
    int64_t cbr_degraded = 0;
    int64_t cbr_abandoned = 0;
    int64_t cbr_restore_retries = 0;
    int64_t restore_lost = 0;
};

/**
 * Execute every run of the sweep, each network on `engine_threads`
 * shards (Network::run) — a wall-clock choice only, invisible in the
 * results.
 *
 * `on_progress`, if set, is called after each completed run with
 * (completed, total).
 */
std::vector<NetCellSummary> runNetSweep(
    const NetSweepSpec& spec, int engine_threads = 1,
    const std::function<void(int, int)>& on_progress = {});

/**
 * Serialize to the an2.netsweep.v1 schema: `{meta, axes, cells[]}`
 * like an2.sweep.v1, with topo/load axes and network-level metrics.
 * Deterministic; no engine, thread, or host data is emitted.
 */
std::string netSweepToJson(const NetSweepSpec& spec,
                           const std::vector<NetCellSummary>& cells);

class LanMetricsSeries;

/**
 * Re-run one grid point of the sweep — the first topology at its
 * highest load, replicate 0, with that run's exact seeds — sampling
 * cumulative LanStats into `series` every series.everySlots() slots.
 * Samples land at Lan::run() boundaries, which are full barriers on
 * every shard count, so the series is byte-identical for any
 * `engine_threads`, with or without a fault plan.
 */
void observeNetPoint(const NetSweepSpec& spec, int engine_threads,
                     LanMetricsSeries& series);

/** Spec-form name of a traffic pattern ("uniform", ...). */
const char* patternName(Pattern pattern);

}  // namespace an2::topo

#endif  // AN2_TOPO_NET_SWEEP_H
