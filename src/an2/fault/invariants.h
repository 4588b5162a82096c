/**
 * @file
 * Always-on runtime invariants for the switch models.
 *
 * AN2_CHECK is the assertion the fault machinery leans on: like
 * AN2_ASSERT it stays active in Release builds (the test and CI
 * configurations run optimized), and it can be compiled out wholesale
 * with -DAN2_DISABLE_CHECKS for production-style builds. Every switch
 * implementation carries an InvariantChecker and verifies, once per
 * slot:
 *
 *  - cell conservation: accepted == departed + purged + buffered, using
 *    O(1) running totals (no per-slot scan beyond the bufferedCells() the
 *    simulator already pays for). Purged cells were buffered and then
 *    discarded on purpose (CBR path restoration). Dropped cells never
 *    enter the buffers and are ledgered separately; the simulator's
 *    end-of-run identity injected == delivered + buffered + all-losses
 *    covers them;
 *  - matching legality against the live-port masks: no crossbar pairing
 *    touches a port the fault injector has killed;
 *  - reservation consistency: after any CBR repair operation, the frame
 *    schedule still realizes the reservation matrix exactly.
 *
 * The checker performs no heap allocation on its success paths, so it is
 * safe inside the zero-allocation slot loop (pinned by zero_alloc_test).
 */
#ifndef AN2_FAULT_INVARIANTS_H
#define AN2_FAULT_INVARIANTS_H

#include <cstdint>

#include "an2/base/error.h"
#include "an2/base/types.h"

#ifdef AN2_DISABLE_CHECKS
#define AN2_CHECK(cond, msg) ((void)0)
#else
/** Release-mode invariant check; see file comment. */
#define AN2_CHECK(cond, msg) AN2_ASSERT(cond, msg)
#endif

namespace an2 {

class Matching;
class FrameSchedule;
class ReservationMatrix;

namespace fault {

/** Per-switch invariant state and the check entry points. */
class InvariantChecker
{
  public:
    // ---- O(1) conservation ledger (maintained by the switch) ----------

    /** A cell entered the switch's buffers. */
    void noteAccepted() { ++accepted_; }

    /** A cell was discarded at ingress (dead port, HEC failure, buffer
        policy) — instead of, never in addition to, being accepted. */
    void noteDropped() { ++dropped_; }

    /** `k` cells left the switch this slot. */
    void noteDeparted(int64_t k) { departed_ += k; }

    /** `k` buffered cells were discarded without departing. */
    void notePurged(int64_t k) { purged_ += k; }

    int64_t accepted() const { return accepted_; }
    int64_t dropped() const { return dropped_; }
    int64_t departed() const { return departed_; }
    int64_t purged() const { return purged_; }

    /** Verify accepted == departed + purged + buffered. */
    void checkConservation(int64_t buffered, const char* who) const
    {
        AN2_CHECK(accepted_ == departed_ + purged_ + buffered,
                  who << ": cell conservation violated: " << accepted_
                      << " accepted != " << departed_ << " departed + "
                      << purged_ << " purged + " << buffered
                      << " buffered (" << dropped_
                      << " dropped at ingress)");
    }

    // ---- structural checks (static; called where the state lives) ----

    /**
     * No pairing of `m` touches a port marked dead in the given
     * bitmasks (words as in wordset, null mask = all live).
     */
    static void checkMatchingAvoidsDead(const Matching& m,
                                        const uint64_t* dead_in,
                                        const uint64_t* dead_out,
                                        const char* who);

    /** The frame schedule realizes the reservation matrix exactly. */
    static void checkScheduleRealizes(const FrameSchedule& sched,
                                      const ReservationMatrix& res,
                                      const char* who);

    /**
     * Restoration slot conservation: every revoked cells/frame slot must
     * be re-placed on a live path, shed (degraded re-admission or an
     * abandoned flow), or still pending re-admission — no reservation
     * bandwidth silently leaks during path restoration.
     */
    static void checkRestorationConservation(int64_t revoked,
                                             int64_t replaced, int64_t shed,
                                             int64_t pending,
                                             const char* who)
    {
        AN2_CHECK(revoked == replaced + shed + pending,
                  who << ": revoked-slot conservation violated: " << revoked
                      << " revoked != " << replaced << " replaced + " << shed
                      << " shed + " << pending << " pending");
    }

  private:
    int64_t accepted_ = 0;
    int64_t departed_ = 0;
    int64_t purged_ = 0;
    int64_t dropped_ = 0;
};

}  // namespace fault
}  // namespace an2

#endif  // AN2_FAULT_INVARIANTS_H
