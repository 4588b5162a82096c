#include "an2/fault/invariants.h"

#include "an2/cbr/frame_schedule.h"
#include "an2/matching/matching.h"
#include "an2/matching/wordset.h"

namespace an2::fault {

void
InvariantChecker::checkMatchingAvoidsDead(const Matching& m,
                                          const uint64_t* dead_in,
                                          const uint64_t* dead_out,
                                          const char* who)
{
    const int n = m.numInputs();
    for (PortId i = 0; i < n; ++i) {
        PortId j = m.outputOf(i);
        if (j == kNoPort)
            continue;
        AN2_CHECK(dead_in == nullptr || !wordset::testBit(dead_in, i),
                  who << ": matching uses dead input port " << i);
        AN2_CHECK(dead_out == nullptr || !wordset::testBit(dead_out, j),
                  who << ": matching uses dead output port " << j);
    }
}

void
InvariantChecker::checkScheduleRealizes(const FrameSchedule& sched,
                                        const ReservationMatrix& res,
                                        const char* who)
{
    AN2_CHECK(sched.realizes(res),
              who << ": frame schedule no longer realizes the reservation "
                     "matrix");
}

}  // namespace an2::fault
