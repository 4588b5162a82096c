#include "an2/sim/virtual_clock.h"

#include <algorithm>

#include "an2/base/error.h"

namespace an2 {

VirtualClockSwitch::VirtualClockSwitch(int n)
    : n_(requirePositive(n, "switch size")), queues_(static_cast<size_t>(n))
{
}

void
VirtualClockSwitch::setFlowRate(FlowId flow, double rate)
{
    AN2_REQUIRE(rate > 0.0 && rate <= 1.0, "rate must be in (0,1]");
    rates_[flow] = rate;
}

void
VirtualClockSwitch::setDefaultRate(double rate)
{
    AN2_REQUIRE(rate > 0.0 && rate <= 1.0, "rate must be in (0,1]");
    default_rate_ = rate;
}

void
VirtualClockSwitch::acceptCell(const Cell& cell)
{
    AN2_REQUIRE(cell.output >= 0 && cell.output < n_,
                "cell output " << cell.output << " out of range");
    auto rate_it = rates_.find(cell.flow);
    double rate = rate_it == rates_.end() ? default_rate_ : rate_it->second;

    // Zhang's update: VC <- max(VC, now) + 1/rate. Using max() with the
    // arrival time keeps an idle flow from hoarding priority credit.
    double now = static_cast<double>(cell.arrival_slot);
    double& vc = virtual_clock_[cell.flow];
    vc = std::max(vc, now) + 1.0 / rate;

    queues_[static_cast<size_t>(cell.output)].push(
        {cell, vc, arrivals_seen_++});
    ++buffered_;
}

const std::vector<Cell>&
VirtualClockSwitch::runSlot(SlotTime)
{
    departed_.clear();
    for (auto& q : queues_) {
        if (q.empty())
            continue;
        departed_.push_back(q.top().cell);
        q.pop();
        --buffered_;
    }
    return departed_;
}

int
VirtualClockSwitch::bufferedCells() const
{
    return buffered_;
}

}  // namespace an2
