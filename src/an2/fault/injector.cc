#include "an2/fault/injector.h"

#include "an2/base/error.h"
#include "an2/obs/recorder.h"
#include "an2/sim/iq_switch.h"

namespace an2::fault {

FaultInjector::FaultInjector(int n, const FaultPlan& plan, uint64_t seed)
    : n_(n), plan_(plan), rng_(seed),
      in_live_(static_cast<size_t>(n), 1),
      out_live_(static_cast<size_t>(n), 1),
      link_up_(static_cast<size_t>(plan.maxLinkTarget() + 1), 1)
{
    AN2_REQUIRE(n > 0, "fault injector needs a positive switch size");
    plan_.validatePorts(n);
}

void
FaultInjector::addListener(FaultListener* listener)
{
    AN2_REQUIRE(listener != nullptr, "fault listener must not be null");
    listeners_.push_back(listener);
}

bool
FaultInjector::linkUp(int link) const
{
    if (link < 0 || static_cast<size_t>(link) >= link_up_.size())
        return true;
    return link_up_[static_cast<size_t>(link)] != 0;
}

void
FaultInjector::apply(const FaultEvent& e, SlotTime slot, InputQueuedSwitch* sw)
{
    ++applied_;
    obs::faultEvent(static_cast<int>(e.kind), e.target);
    switch (e.kind) {
      case FaultKind::InputDown:
        if (in_live_[static_cast<size_t>(e.target)]) {
            in_live_[static_cast<size_t>(e.target)] = 0;
            ++dead_in_;
            if (sw != nullptr)
                sw->setInputPortLive(e.target, false);
            for (FaultListener* l : listeners_)
                l->onPortDown(true, e.target, slot);
        }
        break;
      case FaultKind::InputUp:
        if (!in_live_[static_cast<size_t>(e.target)]) {
            in_live_[static_cast<size_t>(e.target)] = 1;
            --dead_in_;
            if (sw != nullptr)
                sw->setInputPortLive(e.target, true);
            for (FaultListener* l : listeners_)
                l->onPortUp(true, e.target, slot);
        }
        break;
      case FaultKind::OutputDown:
        if (out_live_[static_cast<size_t>(e.target)]) {
            out_live_[static_cast<size_t>(e.target)] = 0;
            ++dead_out_;
            if (sw != nullptr)
                sw->setOutputPortLive(e.target, false);
            for (FaultListener* l : listeners_)
                l->onPortDown(false, e.target, slot);
        }
        break;
      case FaultKind::OutputUp:
        if (!out_live_[static_cast<size_t>(e.target)]) {
            out_live_[static_cast<size_t>(e.target)] = 1;
            --dead_out_;
            if (sw != nullptr)
                sw->setOutputPortLive(e.target, true);
            for (FaultListener* l : listeners_)
                l->onPortUp(false, e.target, slot);
        }
        break;
      case FaultKind::LinkDown:
        if (link_up_[static_cast<size_t>(e.target)]) {
            link_up_[static_cast<size_t>(e.target)] = 0;
            for (FaultListener* l : listeners_)
                l->onLinkDown(e.target, slot);
        }
        break;
      case FaultKind::LinkUp:
        if (!link_up_[static_cast<size_t>(e.target)]) {
            link_up_[static_cast<size_t>(e.target)] = 1;
            for (FaultListener* l : listeners_)
                l->onLinkUp(e.target, slot);
        }
        break;
    }
}

void
FaultInjector::beginSlot(SlotTime slot, InputQueuedSwitch* sw)
{
    while (cursor_ < plan_.events.size() &&
           plan_.events[cursor_].slot <= slot) {
        apply(plan_.events[cursor_], slot, sw);
        ++cursor_;
    }
    for (FaultListener* l : listeners_)
        l->slotWork(slot);
}

FaultInjector::Verdict
FaultInjector::classifyArrival(const Cell& cell)
{
    AN2_REQUIRE(cell.input >= 0 && cell.input < n_ && cell.output >= 0 &&
                    cell.output < n_,
                "arriving cell (" << cell.input << "->" << cell.output
                                  << ") is outside the " << n_
                                  << "-port switch");
    if (!inputLive(cell.input) || !outputLive(cell.output)) {
        ++dropped_;
        obs::count(obs::Counter::CellsDroppedByFaults);
        return Verdict::Drop;
    }
    if (plan_.drop_prob > 0.0 && rng_.nextBernoulli(plan_.drop_prob)) {
        ++dropped_;
        obs::count(obs::Counter::CellsDroppedByFaults);
        return Verdict::Drop;
    }
    if (plan_.corrupt_prob > 0.0 && rng_.nextBernoulli(plan_.corrupt_prob)) {
        ++corrupted_;
        obs::count(obs::Counter::CellsCorrupted);
        return Verdict::Corrupt;
    }
    return Verdict::Deliver;
}

}  // namespace an2::fault
