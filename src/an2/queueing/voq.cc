#include "an2/queueing/voq.h"

#include "an2/base/error.h"
#include "an2/matching/wordset.h"

namespace an2 {

InputBuffer::InputBuffer(int n_outputs)
    : n_outputs_(n_outputs), flow_index_(n_outputs),
      eligible_(static_cast<size_t>(n_outputs)),
      per_output_(static_cast<size_t>(n_outputs)),
      occ_(static_cast<size_t>(wordset::numWords(n_outputs)), 0)
{
    AN2_REQUIRE(n_outputs > 0, "input buffer needs at least one output");
}

int32_t
InputBuffer::flowSlot(FlowId f)
{
    int32_t& idx = flow_index_[f];
    if (idx == 0) {
        slots_.emplace_back();
        slots_.back().flow = f;
        idx = static_cast<int32_t>(slots_.size());
    }
    return idx - 1;
}

void
InputBuffer::reconcileSole(PerOutput& po, PortId j)
{
    AN2_ASSERT(po.sole > 0, "reconcile on an output that is not single-flow");
    PerFlow& prev = slots_[static_cast<size_t>(po.sole - 1)];
    const bool should = !prev.cells.empty();
    if (prev.eligible_listed != should) {
        auto& list = eligible_[static_cast<size_t>(j)];
        if (should) {
            list.push_back(po.sole - 1);
        } else {
            // The direct paths froze the flow's seat from its first
            // enqueue; a single-flow output's ring holds nothing else.
            AN2_ASSERT(list.size() == 1 && list.front() == po.sole - 1,
                       "single-flow eligible ring out of sync for output "
                           << j);
            list.pop_front();
        }
        prev.eligible_listed = should;
    }
    po.sole = -1;
}

void
InputBuffer::enqueue(const Cell& cell)
{
    enqueueAs(cell.flow, cell);
}

void
InputBuffer::enqueueAs(FlowId queue_key, const Cell& cell)
{
    AN2_REQUIRE(cell.output >= 0 && cell.output < n_outputs_,
                "cell routed to invalid output " << cell.output);
    AN2_REQUIRE(queue_key != kNoFlow, "cell has no queue key");
    PerOutput& po = per_output_[static_cast<size_t>(cell.output)];
    if (po.sole > 0) {
        PerFlow& st = slots_[static_cast<size_t>(po.sole - 1)];
        if (st.flow == queue_key) {
            // Direct: the output's only flow. Its eligible seat from the
            // first enqueue still stands, so no list maintenance.
            st.cells.push_back(cell);
            ++total_cells_;
            if (++po.cells == 1)
                wordset::setBit(occ_.data(), cell.output);
            return;
        }
    }
    const int32_t slot = flowSlot(queue_key);
    PerFlow& st = slots_[static_cast<size_t>(slot)];
    // All cells of a flow take the same path (paper §2): the routing
    // table maps each flow to exactly one output.
    if (st.output == kNoPort) {
        st.output = cell.output;
        if (po.sole == 0)
            po.sole = slot + 1;
        else if (po.sole > 0)
            reconcileSole(po, cell.output);  // second flow for this output
    }
    AN2_REQUIRE(st.output == cell.output,
                "queue " << queue_key << " routed to output " << st.output
                         << " but cell claims output " << cell.output);
    st.cells.push_back(cell);
    ++total_cells_;
    if (++po.cells == 1)
        wordset::setBit(occ_.data(), cell.output);
    if (!st.eligible_listed) {
        eligible_[static_cast<size_t>(cell.output)].push_back(slot);
        st.eligible_listed = true;
    }
}

bool
InputBuffer::hasCellFor(PortId j) const
{
    return cellCountFor(j) > 0;
}

int
InputBuffer::cellCountFor(PortId j) const
{
    AN2_REQUIRE(j >= 0 && j < n_outputs_, "output " << j << " out of range");
    return per_output_[static_cast<size_t>(j)].cells;
}

int
InputBuffer::eligibleFlowsFor(PortId j) const
{
    AN2_REQUIRE(j >= 0 && j < n_outputs_, "output " << j << " out of range");
    const auto& list = eligible_[static_cast<size_t>(j)];
    int n = 0;
    for (size_t k = 0; k < list.size(); ++k)
        if (!slots_[static_cast<size_t>(list.at(k))].cells.empty())
            ++n;
    return n;
}

void
InputBuffer::noteDequeued(PortId j)
{
    --total_cells_;
    if (--per_output_[static_cast<size_t>(j)].cells == 0)
        wordset::clearBit(occ_.data(), j);
}

Cell
InputBuffer::dequeueFor(PortId j)
{
    AN2_REQUIRE(hasCellFor(j), "no cell queued for output " << j);
    PerOutput& po = per_output_[static_cast<size_t>(j)];
    if (po.sole > 0) {
        // Direct: the output's only flow owns every queued cell, and a
        // round-robin among one flow is the identity — skip the ring.
        PerFlow& st = slots_[static_cast<size_t>(po.sole - 1)];
        AN2_ASSERT(!st.cells.empty(),
                   "single-flow count out of sync for output " << j);
        Cell c = st.cells.front();
        st.cells.pop_front();
        --total_cells_;
        if (--po.cells == 0)
            wordset::clearBit(occ_.data(), j);
        return c;
    }
    auto& list = eligible_[static_cast<size_t>(j)];
    while (true) {
        AN2_ASSERT(!list.empty(),
                   "eligible list empty despite queued cells for " << j);
        int32_t s = list.front();
        list.pop_front();
        PerFlow& st = slots_[static_cast<size_t>(s)];
        if (st.cells.empty()) {
            // Stale entry left behind by dequeueFlow(); lazily discard.
            st.eligible_listed = false;
            continue;
        }
        Cell c = st.cells.front();
        st.cells.pop_front();
        noteDequeued(j);
        if (!st.cells.empty()) {
            list.push_back(s);  // round-robin: rotate to the back
        } else {
            st.eligible_listed = false;
        }
        return c;
    }
}

bool
InputBuffer::flowHasCell(FlowId f) const
{
    const int32_t* idx = flow_index_.get(f);
    return idx != nullptr &&
           !slots_[static_cast<size_t>(*idx - 1)].cells.empty();
}

int
InputBuffer::rebindFlow(FlowId f, PortId new_output)
{
    AN2_REQUIRE(new_output >= 0 && new_output < n_outputs_,
                "rebind to invalid output " << new_output);
    int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    PerFlow& st = slots_[static_cast<size_t>(slot)];
    if (st.output == kNoPort || st.output == new_output)
        return 0;
    PortId old = st.output;

    // Drop the flow's seat in the old eligible list (stale entries from
    // dequeueFlow() included); the rotation keeps the others in order.
    if (st.eligible_listed) {
        RingQueue<int32_t>& list = eligible_[static_cast<size_t>(old)];
        for (size_t i = 0, sz = list.size(); i < sz; ++i) {
            int32_t x = list.front();
            list.pop_front();
            if (x != slot)
                list.push_back(x);
        }
        st.eligible_listed = false;
    }
    PerOutput& po_old = per_output_[static_cast<size_t>(old)];
    if (po_old.sole == slot + 1)
        po_old.sole = 0;  // the old output loses its only flow

    auto n = static_cast<int>(st.cells.size());
    if (n == 0) {
        st.output = kNoPort;  // next enqueue binds fresh
        return 0;
    }
    // Retag queued cells in place; a full rotation keeps FIFO order.
    for (int i = 0; i < n; ++i) {
        Cell c = st.cells.front();
        st.cells.pop_front();
        c.output = new_output;
        st.cells.push_back(c);
    }
    PerOutput& po_new = per_output_[static_cast<size_t>(new_output)];
    if ((po_old.cells -= n) == 0)
        wordset::clearBit(occ_.data(), old);
    if ((po_new.cells += n) == n)
        wordset::setBit(occ_.data(), new_output);
    st.output = new_output;
    if (po_new.sole == 0)
        po_new.sole = slot + 1;
    else if (po_new.sole > 0)
        reconcileSole(po_new, new_output);  // second flow for this output
    eligible_[static_cast<size_t>(new_output)].push_back(slot);
    st.eligible_listed = true;
    return n;
}

int
InputBuffer::purgeFlow(FlowId f)
{
    int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    PerFlow& st = slots_[static_cast<size_t>(slot)];
    const PortId out = st.output;
    if (out == kNoPort)
        return 0;  // never bound (or already purged): nothing queued
    if (st.eligible_listed) {
        RingQueue<int32_t>& list = eligible_[static_cast<size_t>(out)];
        for (size_t i = 0, sz = list.size(); i < sz; ++i) {
            int32_t x = list.front();
            list.pop_front();
            if (x != slot)
                list.push_back(x);
        }
        st.eligible_listed = false;
    }
    PerOutput& po = per_output_[static_cast<size_t>(out)];
    if (po.sole == slot + 1)
        po.sole = 0;  // the output loses its only flow
    const auto n = static_cast<int>(st.cells.size());
    while (!st.cells.empty())
        st.cells.pop_front();
    if (n > 0) {
        if ((po.cells -= n) == 0)
            wordset::clearBit(occ_.data(), out);
        total_cells_ -= n;
    }
    st.output = kNoPort;  // next enqueue binds fresh
    return n;
}

Cell
InputBuffer::dequeueFlow(FlowId f)
{
    AN2_REQUIRE(flowHasCell(f), "flow " << f << " has no queued cell");
    PerFlow& st =
        slots_[static_cast<size_t>(*flow_index_.get(f) - 1)];
    Cell c = st.cells.front();
    st.cells.pop_front();
    noteDequeued(c.output);
    // If the flow is now empty, its eligible-list entry (if any) becomes
    // stale and is discarded lazily by dequeueFor().
    return c;
}

}  // namespace an2
