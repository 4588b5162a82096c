/**
 * @file
 * Per-node local clocks with bounded rate error (paper Appendix B).
 *
 * Every switch and controller runs its slot/frame machinery off its own
 * crystal, whose rate is only guaranteed to be within a tolerance of
 * nominal. A node with rate error e executes its k-th slot at wall time
 * phase + k * nominal_slot / (1 + e): fast clocks (e > 0) tick early.
 */
#ifndef AN2_NETWORK_CLOCK_H
#define AN2_NETWORK_CLOCK_H

#include <cmath>

#include "an2/base/error.h"
#include "an2/base/types.h"

namespace an2 {

/** A drifting local slot clock. */
class LocalClock
{
  public:
    /**
     * @param nominal_slot_ps Nominal slot duration (wall picoseconds).
     * @param rate_error Fractional clock-rate error in (-1, 1);
     *        +1e-4 means the clock runs 100 ppm fast.
     * @param phase_ps Wall time of slot 0.
     */
    LocalClock(PicoTime nominal_slot_ps, double rate_error,
               PicoTime phase_ps = 0);

    /** Wall time at which local slot k begins. */
    PicoTime slotStart(int64_t k) const;

    /** Wall time of the next unexecuted slot (kept by advance(), so
        the engines' repeated reads cost no rounding). */
    PicoTime nextTick() const { return next_tick_ps_; }

    /** Index of the next unexecuted slot. */
    int64_t nextSlot() const { return next_slot_; }

    /** Mark the next slot as executed and advance. */
    int64_t
    advance()
    {
        next_tick_ps_ = slotStart(next_slot_ + 1);
        return next_slot_++;
    }

    /** Actual slot period in wall picoseconds. */
    double periodPs() const { return period_ps_; }

  private:
    double period_ps_;
    PicoTime phase_ps_;
    int64_t next_slot_ = 0;
    PicoTime next_tick_ps_;  ///< slotStart(next_slot_)
};

}  // namespace an2

#endif  // AN2_NETWORK_CLOCK_H
