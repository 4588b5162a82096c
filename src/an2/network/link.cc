#include "an2/network/link.h"

#include "an2/base/error.h"

namespace an2 {

NetLink::NetLink(PicoTime latency_ps) : latency_ps_(latency_ps)
{
    AN2_REQUIRE(latency_ps >= 0, "link latency must be non-negative");
}

void
NetLink::send(const Cell& cell, PicoTime now_ps)
{
    if (!up_) {
        ++cells_lost_;
        return;
    }
    // Transmissions from one upstream port are naturally ordered in time,
    // so both queues stay sorted by arrival.
    PicoTime arrives = now_ps + latency_ps_;
    ++cells_carried_;
    if (deferred_) {
        // The downstream shard owns in_flight_ and the due slot until
        // the barrier's commit(), so a deferred send reads neither.
        AN2_ASSERT(pending_.empty() || pending_.back().arrives_ps <= arrives,
                   "link send out of time order");
        pending_.push_back({cell, arrives});
        return;
    }
    AN2_ASSERT(in_flight_.empty() || in_flight_.back().arrives_ps <= arrives,
               "link send out of time order");
    in_flight_.push_back({cell, arrives});
    if (in_flight_.size() == 1)
        publishDue();  // a new head
}

void
NetLink::setDeferred(bool deferred)
{
    if (deferred_ && !deferred)
        commit();
    deferred_ = deferred;
}

void
NetLink::commit()
{
    if (pending_.empty())
        return;
    bool new_head = in_flight_.empty();
    while (!pending_.empty()) {
        const TimedCell& tc = pending_.front();
        AN2_ASSERT(in_flight_.empty() ||
                       in_flight_.back().arrives_ps <= tc.arrives_ps,
                   "link commit out of time order");
        in_flight_.push_back(tc);
        pending_.pop_front();
    }
    if (new_head)
        publishDue();
}

void
NetLink::setUp(bool up)
{
    if (up_ == up)
        return;
    up_ = up;
    if (!up_) {
        cells_lost_ +=
            static_cast<int64_t>(in_flight_.size() + pending_.size());
        in_flight_.clear();
        pending_.clear();
        publishDue();
    }
}

void
NetLink::watch(PicoTime* slot)
{
    AN2_REQUIRE(due_ == nullptr, "link already feeds a node");
    due_ = slot;
    publishDue();
}

void
NetLink::deliverInto(PicoTime now_ps, std::vector<Cell>& out)
{
    while (!in_flight_.empty() && in_flight_.front().arrives_ps <= now_ps) {
        out.push_back(in_flight_.front().cell);
        in_flight_.pop_front();
    }
    publishDue();
}

std::vector<Cell>
NetLink::deliverUpTo(PicoTime now_ps)
{
    std::vector<Cell> out;
    deliverInto(now_ps, out);
    return out;
}

}  // namespace an2
