/**
 * @file
 * Declarative experiment sweeps over the single-switch simulator.
 *
 * A SweepSpec names the axes of an experiment — switch architectures,
 * switch sizes, offered loads, and replicate count — plus a workload
 * factory and the per-run simulation length. expandGrid() unrolls the
 * axes into a flat run list; runSweep() executes the runs on a pool of
 * worker threads.
 *
 * Determinism: every run's PRNG seeds are derived from the spec's base
 * seed and the run's grid coordinates alone (splitmix64 mixing — the
 * switch/scheduler seed from the run index, the traffic seed from the
 * workload coordinate so all architectures face identical arrivals),
 * and results are stored by grid index. The outcome is therefore
 * bit-identical regardless of thread count or OS scheduling —
 * `--threads 8` is purely a wall-clock optimization.
 */
#ifndef AN2_HARNESS_SWEEP_H
#define AN2_HARNESS_SWEEP_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/types.h"
#include "an2/fault/fault_plan.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

namespace an2::harness {

/** Builds the switch under test for one run. */
using SwitchFactory =
    std::function<std::unique_ptr<InputQueuedSwitch>(int n, uint64_t seed)>;

/** Builds the workload for one run. */
using TrafficFactory = std::function<std::unique_ptr<TrafficGenerator>(
    int n, double load, uint64_t seed)>;

/** One switch architecture under comparison (one axis value). */
struct ArchSpec
{
    /** Display name, e.g. "PIM(4)"; used in tables and JSON. */
    std::string name;

    SwitchFactory make;

    /** A CIOQ arch's crossbar speedup and output service ("strict" or
        "wrr"), which an2_sweep's --arch stamps into the JSON meta; 0
        and "" for every other arch. */
    int speedup = 0;
    std::string service{};
};

/** Declarative description of a full experiment sweep. */
struct SweepSpec
{
    /** Experiment identifier, e.g. "fig3"; lands in the JSON meta. */
    std::string name;

    /** One-line description for reports. */
    std::string description;

    /** Workload name for the JSON meta, e.g. "uniform". */
    std::string workload;

    /** Architectures to compare (axis 1). */
    std::vector<ArchSpec> archs;

    /** Switch sizes N (axis 2). */
    std::vector<int> sizes{16};

    /** Offered loads (axis 3). */
    std::vector<double> loads;

    /** Independent replicates per (arch, size, load) cell (axis 4). */
    int replicates = 1;

    /** Root of the deterministic seed derivation. */
    uint64_t base_seed = 1;

    /** Slots to simulate per run. */
    SlotTime slots = 120'000;

    /** Warmup slots excluded from metrics. */
    SlotTime warmup = 20'000;

    /** Workload factory shared by all runs. */
    TrafficFactory make_traffic;

    /**
     * Fault scenario applied identically to every run (empty = none).
     * Each run gets its own FaultInjector seeded from stream 2 of the
     * run index, so the probabilistic modes replay deterministically on
     * any thread count.
     */
    fault::FaultPlan faults;

    /**
     * CIOQ annotations for the JSON meta (copied from the arch that
     * `--arch` names): speedup 0 / service "" mean "not a CIOQ sweep"
     * and the keys are omitted entirely, keeping pre-CIOQ documents
     * byte-stable.
     */
    int speedup = 0;
    std::string service;
};

/** One point of the expanded run grid. */
struct RunPoint
{
    /** Dense grid index; also the result slot and the seed input. */
    int run_index = 0;

    int arch_index = 0;
    int size_index = 0;
    int load_index = 0;
    int replicate = 0;

    uint64_t switch_seed = 0;
    uint64_t traffic_seed = 0;
    uint64_t fault_seed = 0;
};

/**
 * Derive the seed for (`index`, `stream`) under `base_seed` via
 * splitmix64. Streams separate independent PRNG consumers: stream 0
 * (switch/scheduler) is keyed by the run index; stream 1 (traffic) is
 * keyed by the workload coordinate
 * `(size_index * |loads| + load_index) * replicates + replicate`,
 * giving every architecture the identical arrival sequence at a cell
 * (common random numbers); stream 2 (fault injection) is keyed by the
 * run index.
 */
uint64_t runSeed(uint64_t base_seed, int index, uint64_t stream);

/**
 * Unroll the spec's axes into the run grid, ordered arch-major:
 * arch, then size, then load, then replicate. Validates the spec.
 */
std::vector<RunPoint> expandGrid(const SweepSpec& spec);

/** All outcomes of a sweep, ordered by run_index. */
struct SweepResult
{
    std::vector<RunPoint> grid;
    std::vector<SimResult> results;  ///< parallel to grid

    /** Worker threads actually used (reporting only; not in JSON). */
    int threads_used = 0;
};

/**
 * Execute every run of the sweep on `threads` worker threads
 * (0 = std::thread::hardware_concurrency). Results are bit-identical
 * for any thread count. The first exception thrown by a run (e.g. a
 * UsageError from an invalid spec) is rethrown on the calling thread
 * after the pool drains.
 *
 * `on_progress`, if set, is called after each completed run with
 * (completed, total); calls are serialized but may come from any order
 * of run completion.
 */
SweepResult runSweep(const SweepSpec& spec, int threads = 0,
                     const std::function<void(int, int)>& on_progress = {});

}  // namespace an2::harness

#endif  // AN2_HARNESS_SWEEP_H
