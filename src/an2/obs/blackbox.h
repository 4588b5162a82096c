/**
 * @file
 * The flight recorder: a post-mortem black box over a Recorder.
 *
 * The Recorder's drop-oldest event ring already *is* a last-K-slots
 * flight buffer; what a failure investigation lacks is a dump of that
 * buffer captured at the moment something went wrong, with the switch
 * state that the counters alone cannot reconstruct. A Blackbox arms two
 * triggers and serializes one `an2.blackbox.v1` document per firing:
 *
 *  - invariant panics: installs the base-layer panic hook, so any
 *    AN2_CHECK / AN2_ASSERT / AN2_PANIC on the observed thread dumps
 *    the post-mortem *before* the InternalError unwinds the state;
 *  - scripted faults: as a fault::FaultListener on a FaultInjector,
 *    port- and link-death events dump on arrival.
 *
 * A dump holds the failure reason, all counters plus their deltas since
 * the baseline (construction or the last rebaseline()), gauges, the
 * live-port masks and VOQ occupancy heatmap pulled from the switch via
 * InputQueuedSwitch::fillOccupancy, latency quantiles when tracked, and
 * the most recent trace events, newest window last. When a dump path is
 * configured each dump (best-effort) overwrites that file, so the file
 * always holds the latest post-mortem.
 *
 * Triggers fire on the construction thread only (probes and the panic
 * hook are thread-local). Dump serialization allocates freely — it runs
 * once, on the way down.
 */
#ifndef AN2_OBS_BLACKBOX_H
#define AN2_OBS_BLACKBOX_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/types.h"
#include "an2/fault/injector.h"
#include "an2/obs/probe.h"

namespace an2 {

class InputQueuedSwitch;

namespace obs {

class Recorder;

/** Trigger and output configuration for a Blackbox. */
struct BlackboxConfig
{
    /** Dump when a scripted port or link death is observed. */
    bool dump_on_fault = true;

    /** Install the panic hook: dump when an invariant fires. */
    bool arm_panic_hook = true;

    /** File to (over)write with each dump; empty keeps dumps in memory
        only (lastDump()). */
    std::string path;

    /** Most recent trace events decoded into a dump. */
    size_t max_events = 256;
};

/** Captures an2.blackbox.v1 post-mortems from a Recorder + switch. */
class Blackbox final : public fault::FaultListener
{
  public:
    /**
     * @param recorder The observed thread's recorder (must outlive this).
     * @param sw Switch to pull VOQ occupancy and port masks from; may be
     *        null (those sections are omitted).
     * @param config Triggers and output path.
     */
    explicit Blackbox(Recorder& recorder,
                      const InputQueuedSwitch* sw = nullptr,
                      BlackboxConfig config = {});

    /** Restores the previously installed panic hook. */
    ~Blackbox() override;

    Blackbox(const Blackbox&) = delete;
    Blackbox& operator=(const Blackbox&) = delete;

    // ---- fault::FaultListener triggers -------------------------------

    void onPortDown(bool is_input, PortId port, SlotTime slot) override;
    void onLinkDown(int link, SlotTime slot) override;

    // ---- manual capture ----------------------------------------------

    /** Capture a dump now; returns the serialized document. */
    const std::string& dump(const std::string& reason, SlotTime slot);

    /** The most recent dump ("" before the first trigger). */
    const std::string& lastDump() const { return last_dump_; }

    /** Dumps captured so far. */
    int64_t dumps() const { return dumps_; }

    /** Reset the counter-delta baseline to the counters' current values
        (done once at construction). */
    void rebaseline();

  private:
    static void panicTrampoline(void* ctx, const std::string& msg);

    Recorder& rec_;
    const InputQueuedSwitch* sw_;
    BlackboxConfig cfg_;
    std::array<int64_t, kNumCounters> baseline_{};
    std::vector<int32_t> voq_;
    std::vector<int32_t> backlog_;
    std::string last_dump_;
    int64_t dumps_ = 0;
    bool hook_armed_ = false;
    PanicHook prev_hook_ = nullptr;
    void* prev_ctx_ = nullptr;
};

}  // namespace obs
}  // namespace an2

#endif  // AN2_OBS_BLACKBOX_H
