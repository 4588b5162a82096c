/**
 * @file
 * LAN-scale CBR path restoration (the network-level complement of the
 * single-switch CbrRepairEngine).
 *
 * The AN2 paper's reservation model pins a CBR flow to one path: each
 * switch on it holds frame-schedule slots, each link carries an
 * admission commitment. When a link dies, PR 5 gave VBR traffic ECMP
 * failover but left CBR flows stranded — their cells die at the dead
 * link while every switch keeps burning schedule slots on them. The
 * PathRestorer closes that gap:
 *
 *  1. On link death it revokes, hop by hop, every CBR reservation whose
 *     path crosses the dead link (frame slots return to the
 *     Slepian-Duguid schedules; admission commitments are released; the
 *     source is muted so injection pauses cleanly).
 *  2. It then re-admits each flow end-to-end on a freshly routed path,
 *     under a deterministic retry policy: seeded exponential backoff
 *     with a cap, and a per-flow retry budget. Flows end in one of
 *     three terminal states — Restored (full rate on a live path),
 *     Degraded (re-admitted at a reduced rate when the budget runs out
 *     but capacity exists), or Abandoned (purged everywhere).
 *
 * All decisions are pure functions of (policy seed, flow id, attempt),
 * so restoration replays byte-identically on any shard count. A
 * slot-conservation ledger checks that every revoked cells/frame slot
 * is re-placed, shed, or still pending
 * (InvariantChecker::checkRestorationConservation).
 */
#ifndef AN2_FAULT_RESTORATION_H
#define AN2_FAULT_RESTORATION_H

#include <cstdint>
#include <map>

#include "an2/base/stats.h"
#include "an2/base/types.h"

namespace an2::topo {
class Lan;
}  // namespace an2::topo

namespace an2::fault {

/** Retry/timeout/backoff knobs for path restoration. */
struct RestorePolicy
{
    /** Failed re-admission attempts allowed before the flow falls to a
        degraded rate or is abandoned. */
    int retry_budget = 8;

    /** Backoff after the n-th failed attempt is
        min(base << n, max) + jitter(seed, flow, n), in slots. */
    SlotTime base_backoff_slots = 16;
    SlotTime max_backoff_slots = 2048;

    /** Jitter amplitude in slots (a seeded draw in [0, amplitude)),
        de-synchronizing retries of flows hit by the same fault. */
    SlotTime jitter_slots = 8;

    /** Permit degraded re-admission (largest admissible rate >= 1) when
        the budget runs out; false abandons directly. */
    bool allow_degraded = true;

    /** Seed of the jitter stream. */
    uint64_t seed = 0;
};

/** Lifecycle of one restoration episode. */
enum class RestoreState : uint8_t {
    Pending = 0,  ///< revoked, awaiting re-admission
    Restored,     ///< re-admitted at full rate
    Degraded,     ///< re-admitted at a reduced rate
    Abandoned,    ///< retry budget exhausted with no usable path
};

/** Aggregate restoration telemetry. */
struct RestoreStats
{
    int64_t episodes = 0;   ///< restoration episodes started
    int64_t restored = 0;   ///< episodes ending Restored
    int64_t degraded = 0;   ///< episodes ending Degraded
    int64_t abandoned = 0;  ///< episodes ending Abandoned
    int64_t retries = 0;    ///< re-admission attempts made

    // Slot-conservation ledger (cells/frame units).
    int64_t slots_revoked = 0;   ///< reservation slots revoked by faults
    int64_t slots_replaced = 0;  ///< slots re-placed on live paths
    int64_t slots_shed = 0;      ///< slots given up (degraded/abandoned)

    /** Fault-to-terminal-state latency of successful episodes
        (Restored or Degraded), in slots. */
    LogHistogram latency_slots;
};

/**
 * Drives CBR path restoration for one Lan. The Lan owns the restorer
 * (Lan::enableRestoration) and calls onLinkDown() from its fault
 * dispatch and runPending() between run segments; nextActionSlot()
 * tells the run loop when to stop next.
 */
class PathRestorer
{
  public:
    PathRestorer(topo::Lan& lan, const RestorePolicy& policy);

    /** A directed link died at `slot`: revoke every CBR flow crossing
        it and open (or reopen) a restoration episode per flow. */
    void onLinkDown(int link, SlotTime slot);

    /** Earliest slot at which a pending episode wants a retry, or -1
        when nothing is pending. */
    SlotTime nextActionSlot() const;

    /** Attempt re-admission for every episode due at `now_slot`. */
    void runPending(SlotTime now_slot);

    const RestoreStats& stats() const { return stats_; }

    /** Episodes still pending re-admission. */
    int pendingCount() const { return pending_; }

    /** True when the flow has (or had) a restoration episode. */
    bool tracked(FlowId flow) const;

    /** Episode state of a tracked flow; fatal for untracked flows. */
    RestoreState state(FlowId flow) const;

    /** Failed attempts consumed by a tracked flow's episode. */
    int attempts(FlowId flow) const;

    /** Deterministic backoff delay after failed attempt `attempt`
        (exposed so tests can pin the schedule). */
    SlotTime backoffDelay(FlowId flow, int attempt) const;

  private:
    struct Episode
    {
        SlotTime down_slot = 0;  ///< when the fault revoked the path
        SlotTime next_try = 0;   ///< next re-admission attempt slot
        int attempts = 0;        ///< failed attempts so far
        int revoked_k = 0;       ///< cells/frame revoked by the fault
        RestoreState state = RestoreState::Pending;
    };

    /** One re-admission attempt; moves the episode to a terminal state
        or reschedules it. */
    void attemptRestore(FlowId flow, Episode& ep, SlotTime now_slot);

    /** Close an episode into a terminal state, settling the ledger. */
    void finish(FlowId flow, Episode& ep, RestoreState state,
                int admitted_k, SlotTime now_slot);

    topo::Lan& lan_;
    RestorePolicy policy_;
    RestoreStats stats_;
    /** Ordered by flow id, so every pass over pending episodes is in
        deterministic flow order on every engine. */
    std::map<FlowId, Episode> episodes_;
    int pending_ = 0;
    int64_t pending_slots_ = 0;  ///< revoked_k total of pending episodes
};

}  // namespace an2::fault

#endif  // AN2_FAULT_RESTORATION_H
