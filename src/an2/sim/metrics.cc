#include "an2/sim/metrics.h"

#include <algorithm>

#include "an2/base/error.h"

namespace an2 {

MetricsCollector::MetricsCollector(SlotTime warmup_slots)
    : warmup_(warmup_slots)
{
    AN2_REQUIRE(warmup_slots >= 0, "warmup must be non-negative");
}

MetricsCollector::MetricsCollector(SlotTime warmup_slots, int ports)
    : MetricsCollector(warmup_slots)
{
    AN2_REQUIRE(ports > 0, "metrics need a positive port count, got "
                               << ports);
}

void
MetricsCollector::noteInjected(const Cell& cell)
{
    if (cell.inject_slot < warmup_)
        return;
    ++injected_;
}

void
MetricsCollector::noteDelivered(const Cell& cell, SlotTime slot)
{
    const SlotTime d = slot - cell.inject_slot;
    AN2_ASSERT(d >= 0, "cell delivered before injection");
    // Throughput-style counts filter on *delivery* time so that, at
    // saturation, service slots spent draining the warmup backlog are
    // still credited. Delay statistics filter on *injection* time so the
    // initial transient cannot bias them.
    if (slot >= warmup_)
        ++delivered_;
    if (cell.inject_slot >= warmup_) {
        delay_.add(static_cast<double>(d));
        delay_hist_.add(d);
    }
}

void
MetricsCollector::noteOccupancy(int buffered_cells)
{
    max_occupancy_ = std::max(max_occupancy_, buffered_cells);
}

}  // namespace an2
