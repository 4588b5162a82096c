#include "an2/queueing/voq.h"

#include "an2/base/error.h"

namespace an2 {

namespace {

/** The slab's first allocation, in cells. It covers the peak occupancy
    of a lightly loaded input, so such an input does not regrow its slab
    in steady state; slabs grown from one cell were still doubling after
    the LAN warmup of tests/zero_alloc_test.cc. */
constexpr size_t kMinSlabCells = 8;

}  // namespace

InputBuffer::InputBuffer(int n_outputs)
    : n_outputs_(n_outputs), per_output_(static_cast<size_t>(n_outputs))
{
    AN2_REQUIRE(n_outputs > 0, "input buffer needs at least one output");
}

int32_t
InputBuffer::flowSlot(FlowId f)
{
    int32_t& idx = flow_index_[f];
    if (idx == 0) {
        flows_.push_back(PerFlow{.key = f});
        idx = static_cast<int32_t>(flows_.size());
    }
    return idx - 1;
}

int32_t
InputBuffer::allocEntry(const Cell& cell)
{
    int32_t e = free_;
    if (e != kNil) {
        free_ = slab_[static_cast<size_t>(e)].next;
        slab_[static_cast<size_t>(e)] = Entry{cell, kNil};
        return e;
    }
    if (slab_.empty())
        slab_.reserve(kMinSlabCells);
    e = static_cast<int32_t>(slab_.size());
    slab_.push_back(Entry{cell, kNil});
    return e;
}

void
InputBuffer::appendEligible(PerOutput& po, int32_t slot)
{
    flows_[static_cast<size_t>(slot)].next_eligible = kNil;
    if (po.tail == kNil)
        po.head = slot;
    else
        flows_[static_cast<size_t>(po.tail)].next_eligible = slot;
    po.tail = slot;
}

void
InputBuffer::unlinkEligible(PerOutput& po, int32_t slot)
{
    int32_t prev = kNil;
    int32_t s = po.head;
    while (s != slot) {
        AN2_ASSERT(s != kNil, "flow slot " << slot << " missing from its "
                                           "output's eligible list");
        prev = s;
        s = flows_[static_cast<size_t>(s)].next_eligible;
    }
    const int32_t next = flows_[static_cast<size_t>(slot)].next_eligible;
    if (prev == kNil)
        po.head = next;
    else
        flows_[static_cast<size_t>(prev)].next_eligible = next;
    if (po.tail == slot)
        po.tail = prev;
    flows_[static_cast<size_t>(slot)].next_eligible = kNil;
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
    int32_t slot = po.last;
    if (slot == kNil || flows_[static_cast<size_t>(slot)].key != queue_key) {
        slot = flowSlot(queue_key);
        po.last = slot;
    }
    PerFlow& fl = flows_[static_cast<size_t>(slot)];
    // All cells of a flow take the same path (paper §2): the routing
    // table maps each flow to exactly one output.
    if (fl.output == kNoPort)
        fl.output = cell.output;
    AN2_REQUIRE(fl.output == cell.output,
                "queue " << queue_key << " routed to output " << fl.output
                         << " but cell claims output " << cell.output);
    const int32_t e = allocEntry(cell);
    if (fl.count++ == 0) {
        fl.head = e;
        appendEligible(po, slot);
    } else {
        slab_[static_cast<size_t>(fl.tail)].next = e;
    }
    fl.tail = e;
    ++po.cells;
    ++total_cells_;
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
    int n = 0;
    for (int32_t s = per_output_[static_cast<size_t>(j)].head; s != kNil;
         s = flows_[static_cast<size_t>(s)].next_eligible)
        ++n;
    return n;
}

Cell
InputBuffer::dequeueFor(PortId j)
{
    AN2_REQUIRE(hasCellFor(j), "no cell queued for output " << j);
    PerOutput& po = per_output_[static_cast<size_t>(j)];
    const int32_t slot = po.head;
    PerFlow& fl = flows_[static_cast<size_t>(slot)];
    po.head = fl.next_eligible;
    if (po.head == kNil)
        po.tail = kNil;

    const int32_t e = fl.head;
    Entry& entry = slab_[static_cast<size_t>(e)];
    const Cell c = entry.cell;
    fl.head = entry.next;
    entry.next = free_;
    free_ = e;
    --po.cells;
    --total_cells_;
    if (--fl.count > 0)
        appendEligible(po, slot);  // round-robin: rotate to the back
    else
        fl.tail = fl.next_eligible = kNil;
    return c;
}

int
InputBuffer::rebindFlow(FlowId f, PortId new_output)
{
    AN2_REQUIRE(new_output >= 0 && new_output < n_outputs_,
                "rebind to invalid output " << new_output);
    const int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    PerFlow& fl = flows_[static_cast<size_t>(slot)];
    if (fl.output == kNoPort || fl.output == new_output)
        return 0;
    const int n = fl.count;
    if (n == 0) {
        fl.output = kNoPort;  // next enqueue binds fresh
        return 0;
    }
    // Leave the old round-robin (the others keep their order), retag
    // the chain in place, and take the back seat at the new output.
    PerOutput& from = per_output_[static_cast<size_t>(fl.output)];
    unlinkEligible(from, slot);
    from.cells -= n;
    for (int32_t e = fl.head; e != kNil;) {
        Entry& entry = slab_[static_cast<size_t>(e)];
        entry.cell.output = new_output;
        e = entry.next;
    }
    PerOutput& to = per_output_[static_cast<size_t>(new_output)];
    to.cells += n;
    appendEligible(to, slot);
    fl.output = new_output;
    return n;
}

int
InputBuffer::purgeFlow(FlowId f)
{
    const int32_t* idx = flow_index_.get(f);
    if (idx == nullptr)
        return 0;
    const int32_t slot = *idx - 1;
    PerFlow& fl = flows_[static_cast<size_t>(slot)];
    if (fl.output == kNoPort)
        return 0;  // never bound (or already purged): nothing queued
    const int n = fl.count;
    if (n > 0) {
        PerOutput& po = per_output_[static_cast<size_t>(fl.output)];
        unlinkEligible(po, slot);
        po.cells -= n;
        total_cells_ -= n;
        // The whole chain joins the free list in one splice.
        slab_[static_cast<size_t>(fl.tail)].next = free_;
        free_ = fl.head;
        fl.head = fl.tail = kNil;
        fl.count = 0;
    }
    fl.output = kNoPort;  // next enqueue binds fresh
    return n;
}

}  // namespace an2
