#include "an2/fault/restoration.h"

#include <algorithm>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/fault/invariants.h"
#include "an2/obs/probe.h"
#include "an2/obs/recorder.h"
#include "an2/topo/lan.h"

namespace an2::fault {

PathRestorer::PathRestorer(topo::Lan& lan, const RestorePolicy& policy)
    : lan_(lan), policy_(policy)
{
    AN2_REQUIRE(policy_.retry_budget >= 0,
                "retry budget must be non-negative");
    AN2_REQUIRE(policy_.base_backoff_slots >= 1,
                "base backoff must be at least one slot");
    AN2_REQUIRE(policy_.max_backoff_slots >= policy_.base_backoff_slots,
                "backoff cap below the base backoff");
    AN2_REQUIRE(policy_.jitter_slots >= 0,
                "jitter amplitude must be non-negative");
}

SlotTime
PathRestorer::backoffDelay(FlowId flow, int attempt) const
{
    // Seeded exponential backoff with a cap. The shift saturates well
    // before it could overflow; every quantity is a pure function of
    // (seed, flow, attempt), so the retry schedule replays identically
    // on any engine.
    SlotTime delay = policy_.max_backoff_slots;
    if (attempt < 32) {
        const SlotTime shifted = policy_.base_backoff_slots << attempt;
        if (shifted >= policy_.base_backoff_slots)  // no wrap
            delay = std::min(shifted, policy_.max_backoff_slots);
    }
    if (policy_.jitter_slots > 0) {
        uint64_t s = policy_.seed;
        splitmix64(s);
        s ^= static_cast<uint64_t>(static_cast<uint32_t>(flow)) |
             (static_cast<uint64_t>(static_cast<uint32_t>(attempt)) << 32);
        delay += static_cast<SlotTime>(
            splitmix64(s) % static_cast<uint64_t>(policy_.jitter_slots));
    }
    return delay;
}

void
PathRestorer::onLinkDown(int link, SlotTime slot)
{
    const int n = lan_.numFlows();
    for (FlowId f = 0; f < n; ++f) {
        const topo::Lan::FlowInfo info = lan_.flowInfo(f);
        // cbr_admitted == 0 covers flows already mid-restoration and
        // abandoned flows; neither holds anything this link can strand.
        if (info.cls != TrafficClass::CBR || info.cbr_admitted == 0)
            continue;
        const std::vector<LinkId> links = lan_.pathLinks(lan_.flowPath(f));
        if (std::find(links.begin(), links.end(), link) == links.end())
            continue;
        const int k = lan_.revokeCbrPath(f);
        Episode ep;
        ep.down_slot = slot;
        ep.next_try = slot + backoffDelay(f, 0);
        ep.revoked_k = k;
        episodes_[f] = ep;  // a terminal episode re-opens here
        ++pending_;
        pending_slots_ += k;
        ++stats_.episodes;
        stats_.slots_revoked += k;
    }
    InvariantChecker::checkRestorationConservation(
        stats_.slots_revoked, stats_.slots_replaced, stats_.slots_shed,
        pending_slots_, "PathRestorer");
}

SlotTime
PathRestorer::nextActionSlot() const
{
    SlotTime next = -1;
    for (const auto& [flow, ep] : episodes_) {
        if (ep.state != RestoreState::Pending)
            continue;
        if (next < 0 || ep.next_try < next)
            next = ep.next_try;
    }
    return next;
}

void
PathRestorer::runPending(SlotTime now_slot)
{
    for (auto& [flow, ep] : episodes_) {
        if (ep.state != RestoreState::Pending || ep.next_try > now_slot)
            continue;
        attemptRestore(flow, ep, now_slot);
    }
    InvariantChecker::checkRestorationConservation(
        stats_.slots_revoked, stats_.slots_replaced, stats_.slots_shed,
        pending_slots_, "PathRestorer");
}

void
PathRestorer::attemptRestore(FlowId flow, Episode& ep, SlotTime now_slot)
{
    ++stats_.retries;
    obs::count(obs::Counter::CbrRestoreRetries);
    const topo::Lan::FlowInfo info = lan_.flowInfo(flow);
    const std::vector<NodeId> path =
        lan_.router().path(info.src, info.dst, flow);
    if (!path.empty() &&
        lan_.net().admission().canAdmit(lan_.pathLinks(path),
                                        info.cbr_cells)) {
        lan_.installRestoredCbrPath(flow, path, info.cbr_cells);
        finish(flow, ep, RestoreState::Restored, info.cbr_cells, now_slot);
        return;
    }
    ++ep.attempts;
    if (ep.attempts <= policy_.retry_budget) {
        ep.next_try = now_slot + backoffDelay(flow, ep.attempts);
        return;
    }
    // Budget exhausted. Fall back to whatever rate the live path can
    // still carry, else give the flow up.
    if (policy_.allow_degraded && !path.empty()) {
        const int kd =
            std::min(lan_.net().admission().maxAdmissible(lan_.pathLinks(path)),
                     info.cbr_cells);
        if (kd >= 1) {
            lan_.installRestoredCbrPath(flow, path, kd);
            finish(flow, ep, RestoreState::Degraded, kd, now_slot);
            return;
        }
    }
    lan_.abandonCbrFlow(flow);
    finish(flow, ep, RestoreState::Abandoned, 0, now_slot);
}

void
PathRestorer::finish(FlowId flow, Episode& ep, RestoreState state,
                     int admitted_k, SlotTime now_slot)
{
    (void)flow;
    ep.state = state;
    --pending_;
    pending_slots_ -= ep.revoked_k;
    const int64_t replaced =
        std::min<int64_t>(admitted_k, ep.revoked_k);
    stats_.slots_replaced += replaced;
    stats_.slots_shed += ep.revoked_k - replaced;
    switch (state) {
      case RestoreState::Restored:
        ++stats_.restored;
        obs::count(obs::Counter::CbrRestorations);
        stats_.latency_slots.add(now_slot - ep.down_slot);
        break;
      case RestoreState::Degraded:
        ++stats_.degraded;
        obs::count(obs::Counter::CbrRestorations);
        stats_.latency_slots.add(now_slot - ep.down_slot);
        break;
      case RestoreState::Abandoned:
        ++stats_.abandoned;
        obs::count(obs::Counter::CbrAbandoned);
        break;
      case RestoreState::Pending:
        AN2_FATAL("finish() into Pending");
    }
}

bool
PathRestorer::tracked(FlowId flow) const
{
    return episodes_.find(flow) != episodes_.end();
}

RestoreState
PathRestorer::state(FlowId flow) const
{
    auto it = episodes_.find(flow);
    AN2_REQUIRE(it != episodes_.end(),
                "flow " << flow << " has no restoration episode");
    return it->second.state;
}

int
PathRestorer::attempts(FlowId flow) const
{
    auto it = episodes_.find(flow);
    AN2_REQUIRE(it != episodes_.end(),
                "flow " << flow << " has no restoration episode");
    return it->second.attempts;
}

}  // namespace an2::fault
