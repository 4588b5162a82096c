#include "an2/network/net_switch.h"

#include <algorithm>

#include "an2/base/error.h"
#include "an2/fault/invariants.h"

namespace an2 {

NetSwitch::NetSwitch(NodeId id, LocalClock clock, int n_ports,
                     int frame_slots, std::unique_ptr<Matcher> vbr_matcher,
                     bool fifo_merge)
    : NetNode(id, clock), frame_slots_(frame_slots), fifo_merge_(fifo_merge),
      cbr_(n_ports, frame_slots),
      core_(IqSwitchConfig{.n = n_ports}, std::move(vbr_matcher),
            &cbr_.schedule()),
      in_links_(static_cast<size_t>(n_ports), nullptr),
      in_due_(static_cast<size_t>(n_ports), NetLink::kNever),
      out_links_(static_cast<size_t>(n_ports), nullptr)
{
}

void
NetSwitch::checkPort(PortId p) const
{
    AN2_REQUIRE(p >= 0 && p < core_.size(), "port " << p << " out of range");
}

void
NetSwitch::setInLink(PortId p, NetLink* link)
{
    checkPort(p);
    AN2_REQUIRE(in_links_[static_cast<size_t>(p)] == nullptr,
                "input port " << p << " already connected");
    link->watch(&in_due_[static_cast<size_t>(p)]);
    in_links_[static_cast<size_t>(p)] = link;
}

void
NetSwitch::setOutLink(PortId p, NetLink* link)
{
    checkPort(p);
    AN2_REQUIRE(out_links_[static_cast<size_t>(p)] == nullptr,
                "output port " << p << " already connected");
    out_links_[static_cast<size_t>(p)] = link;
}

bool
NetSwitch::addRoute(FlowId flow, PortId in_port, PortId out_port,
                    TrafficClass cls, int cells_per_frame)
{
    checkPort(in_port);
    checkPort(out_port);
    AN2_REQUIRE(!routes_.contains(flow),
                "flow " << flow << " already routed through this switch");
    Route route;
    route.out_port = out_port;
    route.cls = cls;
    route.in_port = in_port;
    if (cls == TrafficClass::CBR) {
        if (!cbr_.addReservation(in_port, out_port, cells_per_frame))
            return false;
        route.cells_per_frame = cells_per_frame;
        cbr_flows_.push_back(flow);
    }
    routes_[flow] = route;
    return true;
}

void
NetSwitch::revokeCbrRoute(FlowId flow)
{
    Route* route = routes_.get(flow);
    AN2_REQUIRE(route != nullptr && route->cls == TrafficClass::CBR,
                "flow " << flow
                        << " has no CBR route through this switch");
    if (route->revoked)
        return;
    cbr_.removeReservation(route->in_port, route->out_port,
                           route->cells_per_frame);
    route->revoked = true;
    fault::InvariantChecker::checkScheduleRealizes(
        cbr_.schedule(), cbr_.reservations(), "NetSwitch revoke");
}

bool
NetSwitch::restoreCbrRoute(FlowId flow, PortId in_port, PortId out_port,
                           int cells_per_frame)
{
    checkPort(in_port);
    checkPort(out_port);
    AN2_REQUIRE(cells_per_frame > 0, "restored reservation must be positive");
    Route* route = routes_.get(flow);
    if (route == nullptr) {
        // This switch is new to the flow: a plain install.
        return addRoute(flow, in_port, out_port, TrafficClass::CBR,
                        cells_per_frame);
    }
    AN2_REQUIRE(route->cls == TrafficClass::CBR && route->revoked,
                "flow " << flow << " has a live route; revoke before "
                        << "restoring");
    if (!cbr_.addReservation(in_port, out_port, cells_per_frame))
        return false;
    // Cells queued before the fault: still valid when the flow enters by
    // the same port (retag to the new output, FIFO order kept); purged
    // when the ingress moved — their (input, output) schedule slots no
    // longer exist.
    for (PortId p = 0; p < core_.size(); ++p) {
        if (p == in_port)
            core_.rebindFlow(p, TrafficClass::CBR, flow, out_port);
        else
            purgeCbrQueueAt(p, flow, *route);
    }
    route->in_port = in_port;
    route->out_port = out_port;
    route->cells_per_frame = cells_per_frame;
    route->revoked = false;
    fault::InvariantChecker::checkScheduleRealizes(
        cbr_.schedule(), cbr_.reservations(), "NetSwitch restore");
    return true;
}

int
NetSwitch::purgeCbrQueueAt(PortId p, FlowId flow, Route& route)
{
    int n = core_.purgeCbrFlow(p, flow);
    restore_purged_ += n;
    route.queued -= n;
    AN2_ASSERT(route.queued >= 0, "negative flow occupancy after purge");
    return n;
}

int
NetSwitch::purgeCbrFlow(FlowId flow)
{
    Route* route = routes_.get(flow);
    if (route == nullptr)
        return 0;  // never routed here, so nothing was ever queued
    int purged = 0;
    for (PortId p = 0; p < core_.size(); ++p)
        purged += purgeCbrQueueAt(p, flow, *route);
    return purged;
}

void
NetSwitch::updateRoute(FlowId flow, PortId out_port)
{
    checkPort(out_port);
    Route* route = routes_.get(flow);
    AN2_REQUIRE(route != nullptr,
                "flow " << flow << " not routed through this switch");
    AN2_REQUIRE(route->cls == TrafficClass::VBR,
                "CBR flow " << flow << " is pinned to its reservation");
    AN2_REQUIRE(!fifo_merge_,
                "cannot reroute flows inside FIFO-merged buffers");
    if (route->out_port == out_port)
        return;
    route->out_port = out_port;
    // Cells already buffered follow the new route too. An upstream
    // reroute can leave the flow queued at more than one input.
    for (PortId p = 0; p < core_.size(); ++p)
        core_.rebindFlow(p, TrafficClass::VBR, flow, out_port);
}

void
NetSwitch::setVbrBufferLimit(int cells)
{
    AN2_REQUIRE(cells >= 0, "buffer limit must be non-negative");
    vbr_buffer_limit_ = cells;
}

int
NetSwitch::maxQueuedCells(FlowId flow) const
{
    const Route* route = routes_.get(flow);
    return route != nullptr ? route->max_queued : 0;
}

int
NetSwitch::maxActiveFrames(FlowId flow) const
{
    const Route* route = routes_.get(flow);
    return route != nullptr ? route->max_active_frames : 0;
}

void
NetSwitch::acceptArrivals(PicoTime now)
{
    for (PortId p = 0; p < core_.size(); ++p) {
        if (in_due_[static_cast<size_t>(p)] > now)
            continue;  // nothing due, or no link
        arrivals_.clear();
        in_links_[static_cast<size_t>(p)]->deliverInto(now, arrivals_);
        for (Cell c : arrivals_) {
            Route* route = routes_.get(c.flow);
            AN2_REQUIRE(route != nullptr,
                        "cell of unrouted flow " << c.flow << " at switch "
                                                 << id_);
            if (route->revoked) {
                // Mid-restoration: the reservation is gone, so the cell
                // has no schedule slot to ride. It is shed here rather
                // than parked — the restorer re-sources the flow once a
                // new path is admitted.
                ++restore_dropped_;
                continue;
            }
            c.input = p;
            c.output = route->out_port;
            if (route->cls == TrafficClass::CBR) {
                core_.acceptCell(c);
                route->max_queued =
                    std::max(route->max_queued, ++route->queued);
            } else if (vbr_buffer_limit_ > 0 &&
                       core_.vbrCellsAt(p) >= vbr_buffer_limit_) {
                ++vbr_dropped_;  // flow-controlled datagram buffer full
            } else if (fifo_merge_) {
                // One FIFO per (input, output) pair, all flows mixed.
                core_.acceptCellAs(static_cast<FlowId>(c.output), c);
            } else {
                core_.acceptCell(c);
            }
        }
    }
}

void
NetSwitch::closeFrame()
{
    for (FlowId flow : cbr_flows_) {
        Route& route = *routes_.get(flow);
        route.active_run = route.active_this_frame ? route.active_run + 1 : 0;
        route.max_active_frames =
            std::max(route.max_active_frames, route.active_run);
        route.active_this_frame = false;
    }
}

void
NetSwitch::tick()
{
    PicoTime now = clock_.nextTick();
    int64_t slot = clock_.advance();
    acceptArrivals(now);
    if (slot % frame_slots_ == 0)
        closeFrame();
    // T(c, s_n): end of this switch's current frame.
    PicoTime frame_end =
        clock_.slotStart((slot / frame_slots_ + 1) * frame_slots_);

    // CBR cells ride their scheduled pairings, then VBR is matched over
    // the ports CBR left free; departures come CBR first, then VBR, each
    // by ascending input.
    for (Cell c : core_.runSlot(slot)) {
        if (c.cls == TrafficClass::CBR) {
            Route& route = *routes_.get(c.flow);
            --route.queued;
            // Appendix B active-frame accounting for the flow's class 0.
            if (route.cells_per_frame > 0 &&
                c.seq % route.cells_per_frame == 0)
                route.active_this_frame = true;
        }
        NetLink* link = out_links_[static_cast<size_t>(c.output)];
        AN2_REQUIRE(link != nullptr, "switch " << id_ << " output port "
                                               << c.output << " has no link");
        c.frame_end_ps = frame_end;
        ++c.hops;
        link->send(c, now);
    }
}

}  // namespace an2
