/**
 * @file
 * The zero-overhead probe layer: named monotonic counters, gauges, and
 * fixed-size binary trace events that instrument the scheduler hot path
 * without perturbing it.
 *
 * Design contract (enforced by tests/zero_alloc_test.cc and the CI
 * perf-smoke bench row):
 *
 *  - Compiled out entirely under -DAN2_OBS_DISABLED: current() folds to a
 *    constant nullptr, so every probe site is dead code.
 *  - Enabled but *unattached* (no Recorder for this thread): each probe
 *    costs one thread-local load plus one predictable branch. No work is
 *    done to compute probe arguments on this path — instrumented code
 *    fetches current() first and only derives counts when it is non-null.
 *  - Attached: counters and gauges are plain array slots, trace events
 *    land in a preallocated ring (drop-oldest) — zero heap allocations in
 *    steady state. Only snapshot serialization (off by default) builds
 *    strings.
 *
 * Attachment is per *thread* (thread_local), so the sweep harness's
 * worker pool stays observation-free while a foreground traced run on
 * another thread records. A Recorder must outlive its attachment.
 */
#ifndef AN2_OBS_PROBE_H
#define AN2_OBS_PROBE_H

#include <cstdint>

#include "an2/base/types.h"

namespace an2::obs {

/**
 * Monotonic counters, one slot each in the attached Recorder. The
 * match-phase counters (RequestsSeen .. KeepGrantRetained) are defined
 * by the scalar form of each algorithm; the obs conformance test pins
 * the library's word-parallel matchers to the values their scalar test
 * oracles report.
 */
enum class Counter : int {
    /** runSlot() completions. */
    SlotsRun = 0,
    /** Cells accepted into input buffers. */
    CellsEnqueued,
    /** Cells dequeued toward the fabric (CBR + VBR). */
    CellsDequeued,
    /** CBR cells forwarded by the frame schedule. */
    CbrCellsForwarded,
    /** Matcher iterations executed (request/grant/accept rounds). */
    MatchIterations,
    /** Iterations that added at least one match. */
    ProductiveIterations,
    /** (free input, free output) request pairs seen by grant arbiters. */
    RequestsSeen,
    /** Grants issued by output arbiters. */
    GrantsIssued,
    /** Grants accepted by input arbiters (matches added). */
    AcceptsIssued,
    /** Matches retained from earlier iterations of the same slot (the
        §3.3 keep-grant optimization, summed at each iteration end). */
    KeepGrantRetained,
    /** Input ports masked from VBR matching by CBR reservations. */
    CbrMaskedInputs,
    /** Output ports masked from VBR matching by CBR reservations. */
    CbrMaskedOutputs,
    /** Periodic state snapshots emitted. */
    SnapshotsTaken,
    /** Scripted fault events applied by the injector. */
    FaultEvents,
    /** Cells lost to faults (dead ports, in-flight loss). */
    CellsDroppedByFaults,
    /** Cells discarded by the HEC corruption check. */
    CellsCorrupted,
    /** CBR reservations revoked by port failures. */
    CbrReservationsRevoked,
    /** CBR reservations re-placed after port revivals. */
    CbrReservationsRebooked,
    /** ECMP route computations (topo::Router::path calls). */
    RouteLookups,
    /** Flows re-pathed around a dead link (ECMP failover). */
    EcmpReroutes,
    /** Conservative windows executed by the sharded network engine. */
    ShardWindows,
    /** Warm start: previous-slot edges reused to seed a matching. */
    MatchEdgesReused,
    /** Warm start: edges added by the repair pass over free ports. */
    MatchEdgesRepaired,
    /** Warm start: slots whose matching was replayed wholesale because
        the request matrix was unchanged since the previous slot. */
    WarmStartFullReuses,
    /** Cells delivered to their final sink (latency samples taken). */
    CellsDelivered,
    /** Trace-ring events overwritten because the ring was full
        (drop-oldest eviction; a truncated trace is detectable here). */
    TraceEventsDropped,
    /** Time-series samples taken into the metrics ring. */
    MetricsSamples,
    /** Flight-recorder post-mortems captured. */
    BlackboxDumps,
    /** CBR flows whose path was rebuilt after a fault (full rate). */
    CbrRestorations,
    /** Re-admission attempts made by the path restorer. */
    CbrRestoreRetries,
    /** CBR flows abandoned after the retry budget ran out. */
    CbrAbandoned,
    /** Matcher phases executed by a CIOQ switch (speedup S runs S per
        slot; an IQ switch never bumps this). */
    SpeedupPhases,
    /** Delivered cells by class (sampled where CellsDelivered is). */
    CbrCellsDelivered,
    VbrCellsDelivered,
    BeCellsDelivered,
    kCount,
};

/** Number of counters, for sizing flat sample arrays. */
inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/** Point-in-time gauges (last written value wins). */
enum class Gauge : int {
    /** Total cells buffered in the switch at the last slot boundary. */
    BufferedCells = 0,
    /** Size of the most recent slot's VBR matching. */
    LastMatchSize,
    /** High-water mark of any single output queue (CIOQ switches). */
    OutputQueueHwm,
    kCount,
};

/** Number of gauges, for sizing flat sample arrays. */
inline constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kCount);

/** Stable probe names for JSON export and reports. */
const char* counterName(Counter c);
const char* gaugeName(Gauge g);

/** Binary trace event kinds recorded into the ring. */
enum class EventType : uint8_t {
    SlotBegin = 0,  ///< a=0 b=0 c=0 d=0
    SlotEnd,        ///< a=cells forwarded, b=CBR forwarded, c=VBR match size
    MatchIter,      ///< a=requests b=grants c=accepts d=total matched after
    CbrMask,        ///< a=masked inputs, b=masked outputs
    Enqueue,        ///< a=input b=output c=flow d=seq (low 32 bits)
    Dequeue,        ///< a=input b=output c=flow d=seq (low 32 bits)
    Fault,          ///< a=FaultKind b=target port/link
};

/** Which algorithm emitted a MatchIter event. */
enum class MatchAlg : uint8_t {
    Pim = 0,
    Islip = 1,
    Greedy = 2,
};

/**
 * One fixed-size binary trace record. Plain POD so conformance tests can
 * memcmp sequences and the ring is a flat preallocated array.
 */
struct Event
{
    SlotTime slot = 0;   ///< recorder's current slot when recorded
    int32_t a = 0;
    int32_t b = 0;
    int32_t c = 0;
    int32_t d = 0;
    EventType type = EventType::SlotBegin;
    uint8_t alg = 0;     ///< MatchAlg for MatchIter events
    uint16_t iter = 0;   ///< iteration index for MatchIter events
};

class Recorder;

#ifdef AN2_OBS_DISABLED

/** Compiled out: probes fold to `if (nullptr)` and vanish. */
constexpr Recorder*
current()
{
    return nullptr;
}

inline void
attach(Recorder*)
{
}

inline void
detach()
{
}

#else

namespace detail {
/** constinit: no dynamic initializer, so reads skip the TLS-init hook. */
extern thread_local constinit Recorder* tls_recorder;
}  // namespace detail

/** The Recorder observing this thread, or nullptr (the common case). */
inline Recorder*
current()
{
    return detail::tls_recorder;
}

/** Attach `r` to this thread's probes; pass nullptr to detach. */
void attach(Recorder* r);

/** Detach this thread's Recorder (probes become no-ops again). */
void detach();

#endif  // AN2_OBS_DISABLED

}  // namespace an2::obs

#endif  // AN2_OBS_PROBE_H
