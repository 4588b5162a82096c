#include "an2/sim/oq_switch.h"

#include <algorithm>

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

OutputQueuedSwitch::OutputQueuedSwitch(int n)
    : n_(n), queues_(static_cast<size_t>(n)),
      in_live_(static_cast<size_t>(n), 1), out_live_(static_cast<size_t>(n), 1)
{
    AN2_REQUIRE(n > 0, "switch size must be positive");
}

void
OutputQueuedSwitch::setInputPortLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < n_, "input port " << i << " out of range");
    in_live_[static_cast<size_t>(i)] = live ? 1 : 0;
    any_dead_ = std::count(in_live_.begin(), in_live_.end(), 0) +
                    std::count(out_live_.begin(), out_live_.end(), 0) >
                0;
}

void
OutputQueuedSwitch::setOutputPortLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < n_, "output port " << j << " out of range");
    out_live_[static_cast<size_t>(j)] = live ? 1 : 0;
    any_dead_ = std::count(in_live_.begin(), in_live_.end(), 0) +
                    std::count(out_live_.begin(), out_live_.end(), 0) >
                0;
}

bool
OutputQueuedSwitch::inputPortLive(PortId i) const
{
    return in_live_[static_cast<size_t>(i)] != 0;
}

bool
OutputQueuedSwitch::outputPortLive(PortId j) const
{
    return out_live_[static_cast<size_t>(j)] != 0;
}

void
OutputQueuedSwitch::acceptCell(const Cell& cell)
{
    AN2_REQUIRE(cell.input >= 0 && cell.input < n_,
                "cell input " << cell.input << " out of range");
    AN2_REQUIRE(cell.output >= 0 && cell.output < n_,
                "cell output " << cell.output << " out of range");
    if (any_dead_ && (!inputPortLive(cell.input) ||
                      !outputPortLive(cell.output))) {
        checker_.noteDropped();
        obs::count(obs::Counter::CellsDroppedByFaults);
        return;
    }
    checker_.noteAccepted();
    // Perfect fabric: the cell crosses to its output queue immediately.
    queues_[static_cast<size_t>(cell.output)].push_back(cell);
}

const std::vector<Cell>&
OutputQueuedSwitch::runSlot(SlotTime)
{
    departed_.clear();
    for (PortId j = 0; j < n_; ++j) {
        auto& q = queues_[static_cast<size_t>(j)];
        // A dead output link transmits nothing; its queue holds.
        if (any_dead_ && !outputPortLive(j))
            continue;
        if (!q.empty()) {
            departed_.push_back(q.front());
            q.pop_front();
        }
    }
    checker_.noteDeparted(static_cast<int64_t>(departed_.size()));
    checker_.checkConservation(bufferedCells(), "OutputQueuedSwitch");
    return departed_;
}

int
OutputQueuedSwitch::bufferedCells() const
{
    int total = 0;
    for (const auto& q : queues_)
        total += static_cast<int>(q.size());
    return total;
}

}  // namespace an2
