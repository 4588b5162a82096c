#include "an2/network/controller.h"

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

Controller::Controller(NodeId id, LocalClock clock, int frame_slots,
                       int schedulable_slots, uint64_t seed)
    : NetNode(id, clock), frame_slots_(frame_slots),
      schedulable_slots_(schedulable_slots), rng_(seed)
{
    AN2_REQUIRE(frame_slots > 0, "controller frame must be non-empty");
    AN2_REQUIRE(schedulable_slots > 0 && schedulable_slots <= frame_slots,
                "schedulable slots must fit in the frame");
}

void
Controller::setOutLink(NetLink* link)
{
    AN2_REQUIRE(out_link_ == nullptr,
                "controller " << id_ << " output already connected");
    out_link_ = link;
}

void
Controller::setInLink(NetLink* link)
{
    AN2_REQUIRE(in_link_ == nullptr,
                "controller " << id_ << " input already connected");
    link->watch(&in_due_);
    in_link_ = link;
}

void
Controller::addCbrSource(FlowId flow, int cells_per_frame,
                         int attempted_per_frame)
{
    AN2_REQUIRE(cells_per_frame > 0, "CBR reservation must be positive");
    AN2_REQUIRE(cbr_assigned_ + cells_per_frame <= schedulable_slots_,
                "controller link over-committed: "
                    << cbr_assigned_ + cells_per_frame << " > "
                    << schedulable_slots_);
    if (attempted_per_frame == 0)
        attempted_per_frame = cells_per_frame;
    AN2_REQUIRE(attempted_per_frame >= cells_per_frame,
                "application cannot attempt less than the paced rate");
    cbr_sources_.push_back(
        {flow, cells_per_frame, attempted_per_frame, cells_per_frame,
         cbr_assigned_, 0, 0, 0});
    cbr_assigned_ += cells_per_frame;
}

int64_t
Controller::policedDrops(FlowId flow) const
{
    for (const auto& src : cbr_sources_)
        if (src.flow == flow)
            return src.policed_drops;
    AN2_FATAL("flow " << flow << " does not originate here");
}

void
Controller::setCbrActiveCells(FlowId flow, int cells)
{
    for (auto& src : cbr_sources_) {
        if (src.flow != flow)
            continue;
        AN2_REQUIRE(cells >= 0 && cells <= src.cells_per_frame,
                    "active cells " << cells << " outside [0, "
                                    << src.cells_per_frame << "] for flow "
                                    << flow);
        src.active_cells = cells;
        return;
    }
    AN2_FATAL("flow " << flow << " does not originate here");
}

void
Controller::addVbrSource(FlowId flow, double rate)
{
    AN2_REQUIRE(rate >= 0.0 && rate <= 1.0, "VBR rate must be in [0,1]");
    AN2_REQUIRE(total_vbr_rate_ + rate <= 1.0 + 1e-12,
                "total VBR rate exceeds the link");
    vbr_sources_.push_back({flow, rate, 0, 0});
    total_vbr_rate_ += rate;
}

void
Controller::drainSink(PicoTime now)
{
    if (in_due_ > now)
        return;  // nothing due, or no link
    arrivals_.clear();
    in_link_->deliverInto(now, arrivals_);
    obs::Recorder* rec = obs::current();  // hoisted: one load per drain
    for (const Cell& c : arrivals_) {
        FlowDeliveryStats& st = delivered_[c.flow];
        ++st.delivered;
        st.wall_latency_ps.add(static_cast<double>(now - c.inject_ps));
        if (rec != nullptr)
            // Wall latency in nominal slot units, like the single-switch
            // probe; the last hop's output port keys the port histogram.
            rec->latencySample(c.cls, c.output,
                               (now - c.inject_ps) / kSlotPicosAt1Gbps);
        st.adjusted_latency_ps.add(
            static_cast<double>(c.frame_end_ps - c.src_frame_end_ps));
        if (c.seq != st.next_expected_seq)
            ++st.order_violations;
        st.next_expected_seq = c.seq + 1;
    }
}

void
Controller::emit(FlowId flow, TrafficClass cls, int64_t seq, PicoTime now,
                 int64_t slot)
{
    AN2_ASSERT(out_link_ != nullptr, "controller has no outgoing link");
    Cell c;
    c.flow = flow;
    c.cls = cls;
    c.seq = seq;
    c.inject_ps = now;
    c.inject_slot = slot;
    // T(c, s_0): end of the controller frame carrying this cell.
    int64_t frame_index = slot / frame_slots_;
    c.src_frame_end_ps = clock_.slotStart((frame_index + 1) * frame_slots_);
    c.frame_end_ps = c.src_frame_end_ps;
    out_link_->send(c, now);
}

void
Controller::tick()
{
    PicoTime now = clock_.nextTick();
    int64_t slot = clock_.advance();
    drainSink(now);

    if (out_link_ == nullptr)
        return;
    auto fs = static_cast<int>(slot % frame_slots_);

    // CBR pacing: each source owns a contiguous slot range per frame and
    // is always backlogged, so it sends exactly k cells per frame. A
    // misbehaving application (attempted > reserved) generates extra
    // cells each frame; the controller's meter drops the excess at the
    // frame boundary, so the network only ever carries the reservation.
    if (fs == 0) {
        for (auto& src : cbr_sources_) {
            int excess = src.attempted_per_frame - src.cells_per_frame;
            if (excess > 0) {
                src.policed_drops += excess;
                src.next_seq += excess;  // dropped cells consume sequence
            }
        }
    }
    for (auto& src : cbr_sources_) {
        if (fs >= src.first_slot && fs < src.first_slot + src.active_cells) {
            emit(src.flow, TrafficClass::CBR, src.next_seq++, now, slot);
            ++src.injected;
            return;  // one cell per slot on the link
        }
    }

    // Padding slots stay empty; CBR-unassigned schedulable slots carry VBR.
    if (fs >= schedulable_slots_)
        return;
    double u = rng_.nextDouble();
    for (auto& src : vbr_sources_) {
        if (u < src.rate) {
            emit(src.flow, TrafficClass::VBR, src.next_seq++, now, slot);
            ++src.injected;
            return;
        }
        u -= src.rate;
    }
}

const FlowDeliveryStats&
Controller::deliveryStats(FlowId flow) const
{
    const FlowDeliveryStats* st = delivered_.get(flow);
    AN2_REQUIRE(st != nullptr,
                "no cells of flow " << flow << " delivered here");
    return *st;
}

int64_t
Controller::injectedCells(FlowId flow) const
{
    for (const auto& src : cbr_sources_)
        if (src.flow == flow)
            return src.injected;
    for (const auto& src : vbr_sources_)
        if (src.flow == flow)
            return src.injected;
    AN2_FATAL("flow " << flow << " does not originate here");
}

}  // namespace an2
