/**
 * @file
 * The single-switch slot-synchronous simulation harness: wires a traffic
 * generator into a switch model and collects metrics, the way the paper's
 * §3.5 evaluation does.
 */
#ifndef AN2_SIM_SIMULATOR_H
#define AN2_SIM_SIMULATOR_H

#include <functional>

#include "an2/base/types.h"
#include "an2/fault/injector.h"
#include "an2/sim/metrics.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"

namespace an2 {

/** Simulation run parameters. */
struct SimConfig
{
    /** Total slots to simulate. */
    SlotTime slots = 100'000;

    /** Cells injected before this slot are excluded from metrics. */
    SlotTime warmup = 10'000;

    /** Optional observer invoked for every delivered cell. */
    std::function<void(const Cell&, SlotTime)> on_delivered;

    /**
     * Optional fault injector (not owned). When set, its scripted events
     * are applied at each slot boundary (dead ports propagate into the
     * switch via InputQueuedSwitch::set*PortLive) and every generated
     * cell is classified before reaching the switch: cells touching a
     * dead port or losing the drop/corrupt draw never arrive.
     * Conservation then reads injected = delivered + buffered + dropped
     * (all causes).
     */
    fault::FaultInjector* faults = nullptr;
};

/** Results of one simulation run. */
struct SimResult
{
    /** Mean queueing delay in slots (measured cells only). */
    double mean_delay = 0.0;

    /** 99th-percentile delay in slots. */
    double p99_delay = 0.0;

    /** Cells injected / delivered after warmup. */
    int64_t injected = 0;
    int64_t delivered = 0;

    /** Delivered cells per output link per measured slot (utilization). */
    double throughput = 0.0;

    /** Injected cells per input link per measured slot. */
    double offered = 0.0;

    /** Peak total buffer occupancy. */
    int max_occupancy = 0;

    /** Slots over which metrics were accumulated. */
    SlotTime measured_slots = 0;

    // ---- fault accounting (whole run, warmup included) ----------------

    /** Cells lost before the switch: dead port or drop draw. */
    int64_t fault_dropped = 0;

    /** Cells discarded for a corrupted header (HEC check). */
    int64_t fault_corrupted = 0;

    /** Cells the switch itself discarded (its ports died). */
    int64_t switch_dropped = 0;
};

/**
 * Run `traffic` through `sw` for config.slots slots.
 *
 * Verifies cell conservation (injected = delivered + still buffered) and
 * returns the collected metrics.
 */
SimResult runSimulation(InputQueuedSwitch& sw, TrafficGenerator& traffic,
                        const SimConfig& config);

}  // namespace an2

#endif  // AN2_SIM_SIMULATOR_H
