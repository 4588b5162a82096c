/**
 * @file
 * Deterministic fault injection over a running switch.
 *
 * The FaultInjector executes a FaultPlan against one switch instance:
 * at each slot boundary it applies every scripted event that has come
 * due (flipping port liveness on the switch, toggling link state,
 * notifying listeners such as the CBR repair engine), and for each
 * arriving cell it renders a verdict — deliver, drop (lost in flight /
 * dead port), or corrupt (HEC check discards it at ingress).
 *
 * Determinism: the probabilistic modes draw from a private Xoshiro256
 * seeded once at construction (the harness derives the seed from
 * (base_seed, run_index, stream 2) via splitmix64), and draws happen in
 * arrival order only. Identical (seed, plan, arrival sequence) replay
 * byte-identically on any thread count.
 *
 * Everything the injector touches per slot is preallocated at
 * construction; beginSlot/classifyArrival never allocate.
 */
#ifndef AN2_FAULT_INJECTOR_H
#define AN2_FAULT_INJECTOR_H

#include <cstdint>
#include <vector>

#include "an2/base/rng.h"
#include "an2/base/types.h"
#include "an2/cell/cell.h"
#include "an2/fault/fault_plan.h"

namespace an2 {

class InputQueuedSwitch;

namespace fault {

/** Observer of fault transitions (e.g. the CBR repair engine). */
class FaultListener
{
  public:
    virtual ~FaultListener() = default;

    /** A port died. `is_input` selects the side. */
    virtual void onPortDown(bool is_input, PortId port, SlotTime slot)
    {
        (void)is_input;
        (void)port;
        (void)slot;
    }

    /** A port revived. */
    virtual void onPortUp(bool is_input, PortId port, SlotTime slot)
    {
        (void)is_input;
        (void)port;
        (void)slot;
    }

    /** A link changed state. */
    virtual void onLinkDown(int link, SlotTime slot)
    {
        (void)link;
        (void)slot;
    }

    virtual void onLinkUp(int link, SlotTime slot)
    {
        (void)link;
        (void)slot;
    }

    /** Called every slot after events are applied; budgeted repair work
        (schedule re-placement) runs here. */
    virtual void slotWork(SlotTime slot) { (void)slot; }
};

/** Drives one FaultPlan against one switch. */
class FaultInjector
{
  public:
    /** What happens to an arriving cell. */
    enum class Verdict : uint8_t {
        Deliver = 0,  ///< cell reaches the switch intact
        Drop,         ///< lost: dead port or in-flight loss
        Corrupt,      ///< header corrupted; HEC discards it at ingress
    };

    /**
     * @param n Switch size (port events are validated against it).
     * @param plan The scenario to execute (copied).
     * @param seed PRNG seed for the probabilistic modes.
     */
    FaultInjector(int n, const FaultPlan& plan, uint64_t seed);

    /** Register a listener (construction phase; not thread-safe). */
    void addListener(FaultListener* listener);

    /**
     * Apply every scripted event due at or before `slot`, pushing port
     * liveness into `sw` (may be null), notifying listeners, and then
     * running each listener's slotWork budget. Call once per slot,
     * before the slot's arrivals.
     */
    void beginSlot(SlotTime slot, InputQueuedSwitch* sw = nullptr);

    /**
     * Decide the fate of a cell arriving this slot. Draw order is fixed
     * (dead-port check, then drop, then corrupt), so replay is exact.
     */
    Verdict classifyArrival(const Cell& cell);

    bool inputLive(PortId i) const
    {
        return in_live_[static_cast<size_t>(i)] != 0;
    }

    bool outputLive(PortId j) const
    {
        return out_live_[static_cast<size_t>(j)] != 0;
    }

    /** Link state; links not named by any event are up. */
    bool linkUp(int link) const;

    int deadInputs() const { return dead_in_; }
    int deadOutputs() const { return dead_out_; }

    /** Cells dropped by verdicts (dead port + in-flight loss). */
    int64_t cellsDropped() const { return dropped_; }

    /** Cells discarded by the HEC corruption check. */
    int64_t cellsCorrupted() const { return corrupted_; }

    /** Scripted events applied so far. */
    int64_t eventsApplied() const { return applied_; }

    const FaultPlan& plan() const { return plan_; }

    int size() const { return n_; }

  private:
    void apply(const FaultEvent& e, SlotTime slot, InputQueuedSwitch* sw);

    int n_;
    FaultPlan plan_;
    Xoshiro256 rng_;
    std::vector<uint8_t> in_live_;
    std::vector<uint8_t> out_live_;
    std::vector<uint8_t> link_up_;  ///< sized to the largest link target
    std::vector<FaultListener*> listeners_;
    size_t cursor_ = 0;  ///< next unapplied event in plan_.events
    int dead_in_ = 0;
    int dead_out_ = 0;
    int64_t dropped_ = 0;
    int64_t corrupted_ = 0;
    int64_t applied_ = 0;
};

}  // namespace fault
}  // namespace an2

#endif  // AN2_FAULT_INJECTOR_H
