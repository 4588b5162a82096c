#include "an2/network/clock.h"

namespace an2 {

LocalClock::LocalClock(PicoTime nominal_slot_ps, double rate_error,
                       PicoTime phase_ps)
    : phase_ps_(phase_ps)
{
    AN2_REQUIRE(nominal_slot_ps > 0, "slot duration must be positive");
    AN2_REQUIRE(rate_error > -1.0 && rate_error < 1.0,
                "clock rate error must be in (-1,1)");
    period_ps_ = static_cast<double>(nominal_slot_ps) / (1.0 + rate_error);
    next_tick_ps_ = slotStart(0);
}

PicoTime
LocalClock::slotStart(int64_t k) const
{
    // Computed from the slot index each time (not accumulated) so that
    // rounding cannot drift over long runs.
    return phase_ps_ +
           static_cast<PicoTime>(std::llround(static_cast<double>(k) *
                                              period_ps_));
}

}  // namespace an2
