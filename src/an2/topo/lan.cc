#include "an2/topo/lan.h"

#include <algorithm>

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/fault/restoration.h"
#include "an2/obs/probe.h"
#include "an2/obs/recorder.h"

namespace an2::topo {

namespace {

/** Independent seed stream `stream` for node `n` under `seed`. */
uint64_t
nodeSeed(uint64_t seed, NodeId n, uint64_t stream)
{
    uint64_t s = seed + UINT64_C(0x9e3779b97f4a7c15) * (stream + 1);
    splitmix64(s);
    s ^= static_cast<uint64_t>(static_cast<uint32_t>(n));
    return splitmix64(s);
}

}  // namespace

Lan::Lan(const Topology& topo, LanConfig config)
    : topo_(topo), config_(std::move(config)), net_(config_.net),
      router_(topo_)
{
    AN2_REQUIRE(config_.matcher != nullptr, "LanConfig needs a matcher");
    AN2_REQUIRE(config_.max_clock_error >= 0.0,
                "clock error must be non-negative");
    AN2_REQUIRE(topo_.numHosts() >= 2,
                "a LAN needs at least two hosts to talk");

    // Nodes in topology order, so NodeId values coincide.
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        double err = 0.0;
        if (config_.max_clock_error > 0.0) {
            uint64_t s = nodeSeed(config_.seed, n, 0);
            double u = static_cast<double>(s >> 11) * 0x1.0p-53;
            err = config_.max_clock_error * (2.0 * u - 1.0);
        }
        PicoTime phase = 0;
        if (config_.phase_jitter) {
            uint64_t s = nodeSeed(config_.seed, n, 1);
            phase = static_cast<PicoTime>(
                s % static_cast<uint64_t>(config_.net.slot_ps));
        }
        if (topo_.isHost(n)) {
            NodeId id = net_.addController(err, nodeSeed(config_.seed, n, 2),
                                           phase);
            AN2_ASSERT(id == n, "node id mismatch");
        } else {
            int ports = topo_.degree(n);
            AN2_REQUIRE(ports > 0, "switch " << n << " has no edges");
            NodeId id = net_.addSwitch(
                ports, err,
                config_.matcher(ports, nodeSeed(config_.seed, n, 3)),
                phase);
            AN2_ASSERT(id == n, "node id mismatch");
        }
    }

    // Ports follow adjacency order: the port a node uses for edge e is
    // the rank of e in its adjacency list (hosts always use port 0).
    std::vector<PortId> next_port(static_cast<size_t>(topo_.numNodes()), 0);
    edge_links_.assign(2 * static_cast<size_t>(topo_.numEdges()), -1);
    for (int e = 0; e < topo_.numEdges(); ++e) {
        const TopoEdge& te = topo_.edge(e);
        PortId pa = next_port[static_cast<size_t>(te.a)]++;
        PortId pb = next_port[static_cast<size_t>(te.b)]++;
        int ab = net_.connect(te.a, pa, te.b, pb, te.latency_ps);
        int ba = net_.connect(te.b, pb, te.a, pa, te.latency_ps);
        edge_links_[2 * static_cast<size_t>(e)] = ab;
        edge_links_[2 * static_cast<size_t>(e) + 1] = ba;
    }
    link_edge_.assign(static_cast<size_t>(net_.numLinks()), EdgeDir{});
    for (int e = 0; e < topo_.numEdges(); ++e) {
        link_edge_[static_cast<size_t>(edge_links_[2 * static_cast<size_t>(
            e)])] = {e, true};
        link_edge_[static_cast<size_t>(
            edge_links_[2 * static_cast<size_t>(e) + 1])] = {e, false};
    }
}

Lan::~Lan() = default;

void
Lan::checkHost(NodeId n) const
{
    AN2_REQUIRE(n >= 0 && n < topo_.numNodes() && topo_.isHost(n),
                "node " << n << " is not a host");
}

int
Lan::netLinkIndex(int e, bool a_to_b) const
{
    AN2_REQUIRE(e >= 0 && e < topo_.numEdges(), "unknown edge " << e);
    return edge_links_[2 * static_cast<size_t>(e) + (a_to_b ? 0 : 1)];
}

FlowId
Lan::addCbrFlow(NodeId src_host, NodeId dst_host, int cells_per_frame)
{
    checkHost(src_host);
    checkHost(dst_host);
    FlowId flow = net_.nextFlowId();
    std::vector<NodeId> path = router_.path(src_host, dst_host, flow);
    AN2_REQUIRE(!path.empty(), "no route from host " << src_host
                                                     << " to " << dst_host);
    FlowId got = net_.addCbrFlow(path, cells_per_frame);
    if (got == kNoFlow)
        return kNoFlow;
    AN2_ASSERT(got == flow, "flow id drifted from nextFlowId()");
    flows_.push_back({src_host, dst_host, TrafficClass::CBR,
                      std::move(path), cells_per_frame, cells_per_frame});
    return flow;
}

FlowId
Lan::addVbrFlow(NodeId src_host, NodeId dst_host, double rate)
{
    checkHost(src_host);
    checkHost(dst_host);
    FlowId flow = net_.nextFlowId();
    std::vector<NodeId> path = router_.path(src_host, dst_host, flow);
    AN2_REQUIRE(!path.empty(), "no route from host " << src_host
                                                     << " to " << dst_host);
    FlowId got = net_.addVbrFlow(path, rate);
    AN2_ASSERT(got == flow, "flow id drifted from nextFlowId()");
    flows_.push_back({src_host, dst_host, TrafficClass::VBR,
                      std::move(path)});
    return flow;
}

int
Lan::placeMatrix(Pattern pattern, const TrafficSpec& spec, uint64_t seed,
                 double hot_fraction, int servers)
{
    std::vector<NodeId> hosts = topo_.hosts();
    const int h = static_cast<int>(hosts.size());
    Xoshiro256 rng(seed);
    int placed = 0;

    auto place = [&](NodeId src, NodeId dst) {
        if (src == dst)
            return;
        FlowId f = spec.cls == TrafficClass::CBR
                       ? addCbrFlow(src, dst, spec.cbr_cells_per_frame)
                       : addVbrFlow(src, dst, spec.vbr_rate);
        if (f != kNoFlow)
            ++placed;
    };

    switch (pattern) {
      case Pattern::Uniform:
        for (int i = 0; i < h; ++i) {
            // Uniform among the other h-1 hosts.
            auto pick = static_cast<int>(
                rng.nextBelow(static_cast<uint64_t>(h - 1)));
            if (pick >= i)
                ++pick;
            place(hosts[static_cast<size_t>(i)],
                  hosts[static_cast<size_t>(pick)]);
        }
        break;

      case Pattern::Hotspot: {
        AN2_REQUIRE(hot_fraction >= 0.0 && hot_fraction <= 1.0,
                    "hot fraction must be in [0, 1]");
        auto hot = static_cast<int>(
            rng.nextBelow(static_cast<uint64_t>(h)));
        for (int i = 0; i < h; ++i) {
            if (i == hot)
                continue;
            int dst;
            if (rng.nextBernoulli(hot_fraction)) {
                dst = hot;
            } else {
                dst = static_cast<int>(
                    rng.nextBelow(static_cast<uint64_t>(h - 1)));
                if (dst >= i)
                    ++dst;
            }
            place(hosts[static_cast<size_t>(i)],
                  hosts[static_cast<size_t>(dst)]);
        }
        break;
      }

      case Pattern::ClientServer: {
        AN2_REQUIRE(servers >= 1 && servers < h,
                    "need 1 <= servers < hosts");
        // Clients spread over the servers round-robin; each server
        // answers one random client (the reply direction).
        for (int i = servers; i < h; ++i)
            place(hosts[static_cast<size_t>(i)],
                  hosts[static_cast<size_t>((i - servers) % servers)]);
        for (int s = 0; s < servers; ++s) {
            auto c = static_cast<int>(rng.nextBelow(
                static_cast<uint64_t>(h - servers)));
            place(hosts[static_cast<size_t>(s)],
                  hosts[static_cast<size_t>(servers + c)]);
        }
        break;
      }
    }
    return placed;
}

void
Lan::scheduleFaults(const fault::FaultPlan& plan)
{
    AN2_REQUIRE(!plan.probabilistic(),
                "network fault plans support scripted link events only");
    for (const fault::FaultEvent& ev : plan.events) {
        AN2_REQUIRE(ev.kind == fault::FaultKind::LinkDown ||
                        ev.kind == fault::FaultKind::LinkUp,
                    "network fault plans support link events only (got "
                        << fault::faultKindName(ev.kind) << ")");
        AN2_REQUIRE(ev.target >= 0 && ev.target < net_.numLinks(),
                    "fault link target " << ev.target << " out of range");
        fault_events_.push_back(ev);
    }
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const fault::FaultEvent& x,
                        const fault::FaultEvent& y) {
                         return x.slot < y.slot;
                     });
    fault_cursor_ = 0;
}

void
Lan::installVbrPath(FlowId flow, const std::vector<NodeId>& path)
{
    for (size_t k = 1; k + 1 < path.size(); ++k) {
        int in_link = net_.linkIndexBetween(path[k - 1], path[k]);
        int out_link = net_.linkIndexBetween(path[k], path[k + 1]);
        AN2_ASSERT(in_link >= 0 && out_link >= 0,
                   "rerouted path uses a nonexistent link");
        PortId in_port = net_.linkEnds(in_link).to_port;
        PortId out_port = net_.linkEnds(out_link).from_port;
        NetSwitch& sw = net_.netSwitch(path[k]);
        if (sw.hasRoute(flow))
            sw.updateRoute(flow, out_port);
        else
            sw.addRoute(flow, in_port, out_port, TrafficClass::VBR, 0);
    }
}

void
Lan::applyFault(const fault::FaultEvent& ev)
{
    const bool up = ev.kind == fault::FaultKind::LinkUp;
    net_.setLinkUpByIndex(ev.target, up);
    const EdgeDir& ed = link_edge_[static_cast<size_t>(ev.target)];
    router_.setEdgeDirAlive(ed.edge, ed.a_to_b, up);
    obs::count(obs::Counter::FaultEvents);
    if (up)
        return;  // revived links serve future (re)routes only

    // Deterministic ECMP failover: every VBR flow whose current path
    // crosses the dead directed link re-paths, in flow-id order.
    for (FlowId f = 0; f < static_cast<FlowId>(flows_.size()); ++f) {
        FlowRecord& rec = flows_[static_cast<size_t>(f)];
        if (rec.cls != TrafficClass::VBR)
            continue;  // CBR reservations are pinned
        bool crosses = false;
        for (size_t k = 0; !crosses && k + 1 < rec.path.size(); ++k)
            crosses = net_.linkIndexBetween(rec.path[k], rec.path[k + 1]) ==
                      ev.target;
        if (!crosses)
            continue;
        std::vector<NodeId> fresh = router_.path(rec.src, rec.dst, f);
        if (fresh.empty()) {
            ++unroutable_;  // blackholed until something revives
            continue;
        }
        installVbrPath(f, fresh);
        rec.path = std::move(fresh);
        ++reroutes_;
        obs::count(obs::Counter::EcmpReroutes);
    }

    // CBR: with a restorer armed, revoke-and-re-admit end to end;
    // otherwise at least release the bandwidth the dead link strands at
    // every switch downstream of it (those frame slots could never carry
    // this flow's cells again, yet they would block other admissions).
    if (restorer_)
        restorer_->onLinkDown(ev.target, ev.slot);
    else
        releaseDownstream(ev.target);
}

void
Lan::releaseDownstream(int dead_link)
{
    for (FlowId f = 0; f < static_cast<FlowId>(flows_.size()); ++f) {
        FlowRecord& rec = flows_[static_cast<size_t>(f)];
        if (rec.cls != TrafficClass::CBR || rec.cbr_admitted == 0)
            continue;
        const std::vector<LinkId> links = pathLinks(rec.path);
        const size_t m = links.size();
        size_t h = SIZE_MAX;
        for (size_t i = 0; i < m; ++i) {
            if (links[i] == dead_link) {
                h = i;
                break;
            }
        }
        if (h == SIZE_MAX)
            continue;
        // links[i] joins path[i] -> path[i+1]: everything strictly past
        // the dead link — links [h+1, m) and switches path[h+1 .. m-1] —
        // is stranded. Clip against what an earlier fault already freed.
        const size_t start = h + 1;
        const size_t end = std::min(rec.revoked_from, m);
        if (start >= end) {
            rec.revoked_from = std::min(rec.revoked_from, start);
            continue;
        }
        const std::vector<LinkId> seg(links.begin() +
                                          static_cast<ptrdiff_t>(start),
                                      links.begin() +
                                          static_cast<ptrdiff_t>(end));
        net_.admission().release(seg, rec.cbr_admitted);
        downstream_released_ +=
            static_cast<int64_t>(rec.cbr_admitted) *
            static_cast<int64_t>(end - start);
        for (size_t p = start; p < end; ++p) {
            NetSwitch& sw = net_.netSwitch(rec.path[p]);
            sw.revokeCbrRoute(f);
            sw.purgeCbrFlow(f);
        }
        rec.revoked_from = start;
    }
}

void
Lan::run(PicoTime until_ps, int threads)
{
    // Interleave two deterministic event streams: scheduled fault events
    // and the restorer's retry timers. Both are pinned to nominal slot
    // times, and faults win ties, so the split points — and therefore
    // the run — are identical on every shard count.
    const PicoTime slot_ps = config_.net.slot_ps;
    while (true) {
        const bool have_fault = fault_cursor_ < fault_events_.size();
        const PicoTime tf =
            have_fault ? fault_events_[fault_cursor_].slot * slot_ps : 0;
        const SlotTime rs =
            restorer_ ? restorer_->nextActionSlot() : SlotTime{-1};
        const bool have_retry = rs >= 0;
        const PicoTime tr = have_retry ? rs * slot_ps : 0;

        bool fault_first;
        PicoTime t;
        if (have_fault && (!have_retry || tf <= tr)) {
            fault_first = true;
            t = tf;
        } else if (have_retry) {
            fault_first = false;
            t = tr;
        } else {
            break;
        }
        if (t > until_ps)
            break;
        net_.run(t, threads);
        if (fault_first) {
            applyFault(fault_events_[fault_cursor_]);
            ++fault_cursor_;
        } else {
            restorer_->runPending(rs);
        }
    }
    net_.run(until_ps, threads);
}

void
Lan::runFrames(int64_t frames, int threads)
{
    AN2_REQUIRE(frames > 0, "must run at least one frame");
    run(frames * config_.net.switch_frame_slots * config_.net.slot_ps,
        threads);
}

LanStats
Lan::stats() const
{
    LanStats out;
    out.reroutes = reroutes_;
    out.unroutable = unroutable_;
    double wall_sum = 0.0;
    double adj_sum = 0.0;
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        if (topo_.isHost(n)) {
            const Controller& c = net_.controller(n);
            for (const auto& [flow, st] : c.allDeliveryStats()) {
                out.delivered += st.delivered;
                out.order_violations += st.order_violations;
                wall_sum += st.wall_latency_ps.sum();
                adj_sum += st.adjusted_latency_ps.sum();
            }
        } else {
            const NetSwitch& sw = net_.netSwitch(n);
            out.cbr_forwarded += sw.cbrForwarded();
            out.vbr_forwarded += sw.vbrForwarded();
            out.vbr_dropped += sw.vbrDropped();
            out.restore_lost +=
                sw.restorationDropped() + sw.restorationPurged();
        }
    }
    if (restorer_) {
        const fault::RestoreStats& rs = restorer_->stats();
        out.cbr_restored = rs.restored;
        out.cbr_degraded = rs.degraded;
        out.cbr_abandoned = rs.abandoned;
        out.cbr_restore_retries = rs.retries;
        out.cbr_restore_pending = restorer_->pendingCount();
    }
    out.cbr_downstream_released = downstream_released_;
    // Per-class split in a second pass keyed by the flow table (the
    // aggregate sums above keep their original accumulation order, so
    // their floating-point results are unchanged).
    double cbr_wall_sum = 0.0;
    double vbr_wall_sum = 0.0;
    for (FlowId f = 0; f < static_cast<FlowId>(flows_.size()); ++f) {
        const FlowRecord& rec = flows_[static_cast<size_t>(f)];
        int64_t injected = net_.controller(rec.src).injectedCells(f);
        out.injected += injected;
        const Controller& sink = net_.controller(rec.dst);
        int64_t delivered = 0;
        double wall = 0.0;
        if (sink.hasDeliveries(f)) {
            const FlowDeliveryStats& st = sink.deliveryStats(f);
            delivered = st.delivered;
            wall = st.wall_latency_ps.sum();
        }
        if (rec.cls == TrafficClass::CBR) {
            out.cbr_injected += injected;
            out.cbr_delivered += delivered;
            cbr_wall_sum += wall;
        } else {
            out.vbr_injected += injected;
            out.vbr_delivered += delivered;
            vbr_wall_sum += wall;
        }
    }
    for (int l = 0; l < net_.numLinks(); ++l)
        out.link_lost += net_.linkAt(l).cellsLost();
    if (out.delivered > 0) {
        out.mean_wall_latency_ps =
            wall_sum / static_cast<double>(out.delivered);
        out.mean_adjusted_latency_ps =
            adj_sum / static_cast<double>(out.delivered);
    }
    if (out.cbr_delivered > 0)
        out.mean_cbr_wall_latency_ps =
            cbr_wall_sum / static_cast<double>(out.cbr_delivered);
    if (out.vbr_delivered > 0)
        out.mean_vbr_wall_latency_ps =
            vbr_wall_sum / static_cast<double>(out.vbr_delivered);
    return out;
}

const std::vector<NodeId>&
Lan::flowPath(FlowId flow) const
{
    AN2_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
                "unknown flow " << flow);
    return flows_[static_cast<size_t>(flow)].path;
}

void
Lan::enableRestoration(const fault::RestorePolicy& policy)
{
    AN2_REQUIRE(restorer_ == nullptr, "restoration already enabled");
    restorer_ = std::make_unique<fault::PathRestorer>(*this, policy);
}

Lan::FlowInfo
Lan::flowInfo(FlowId flow) const
{
    AN2_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
                "unknown flow " << flow);
    const FlowRecord& rec = flows_[static_cast<size_t>(flow)];
    return {rec.src, rec.dst, rec.cls, rec.cbr_cells, rec.cbr_admitted};
}

std::vector<LinkId>
Lan::pathLinks(const std::vector<NodeId>& path) const
{
    std::vector<LinkId> links;
    if (path.size() >= 2)
        links.reserve(path.size() - 1);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
        int l = net_.linkIndexBetween(path[i], path[i + 1]);
        AN2_ASSERT(l >= 0, "path uses a nonexistent link");
        links.push_back(l);
    }
    return links;
}

int
Lan::revokeCbrPath(FlowId flow)
{
    AN2_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
                "unknown flow " << flow);
    FlowRecord& rec = flows_[static_cast<size_t>(flow)];
    AN2_REQUIRE(rec.cls == TrafficClass::CBR,
                "flow " << flow << " is not CBR");
    const int k = rec.cbr_admitted;
    AN2_REQUIRE(k > 0, "flow " << flow << " holds no admitted reservation");
    for (size_t p = 1; p + 1 < rec.path.size(); ++p)
        net_.netSwitch(rec.path[p]).revokeCbrRoute(flow);
    net_.admission().release(pathLinks(rec.path), k);
    net_.controller(rec.src).setCbrActiveCells(flow, 0);
    rec.cbr_admitted = 0;
    return k;
}

void
Lan::installRestoredCbrPath(FlowId flow, const std::vector<NodeId>& path,
                            int cells_per_frame)
{
    AN2_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
                "unknown flow " << flow);
    FlowRecord& rec = flows_[static_cast<size_t>(flow)];
    AN2_REQUIRE(rec.cls == TrafficClass::CBR && rec.cbr_admitted == 0,
                "flow " << flow << " is not awaiting restoration");
    AN2_REQUIRE(cells_per_frame >= 1 && cells_per_frame <= rec.cbr_cells,
                "restored rate " << cells_per_frame << " outside [1, "
                                 << rec.cbr_cells << "]");
    const bool ok =
        net_.admission().admit(pathLinks(path), cells_per_frame);
    AN2_ASSERT(ok, "restoration path was not admissible");

    // Switches the flow no longer crosses keep a revoked tombstone route
    // (in-flight cells shed there); their queues are purged for good.
    for (size_t p = 1; p + 1 < rec.path.size(); ++p) {
        NodeId n = rec.path[p];
        bool on_new = false;
        for (size_t q = 1; !on_new && q + 1 < path.size(); ++q)
            on_new = path[q] == n;
        if (!on_new)
            net_.netSwitch(n).purgeCbrFlow(flow);
    }
    // (Re-)reserve along the new path; by Slepian-Duguid this cannot
    // fail once admission accepted every link.
    for (size_t q = 1; q + 1 < path.size(); ++q) {
        int in_link = net_.linkIndexBetween(path[q - 1], path[q]);
        int out_link = net_.linkIndexBetween(path[q], path[q + 1]);
        AN2_ASSERT(in_link >= 0 && out_link >= 0,
                   "restored path uses a nonexistent link");
        const bool placed = net_.netSwitch(path[q]).restoreCbrRoute(
            flow, net_.linkEnds(in_link).to_port,
            net_.linkEnds(out_link).from_port, cells_per_frame);
        AN2_ASSERT(placed, "Slepian-Duguid re-reservation failed");
    }
    net_.controller(rec.src).setCbrActiveCells(flow, cells_per_frame);
    rec.path = path;
    rec.cbr_admitted = cells_per_frame;
}

void
Lan::abandonCbrFlow(FlowId flow)
{
    AN2_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
                "unknown flow " << flow);
    FlowRecord& rec = flows_[static_cast<size_t>(flow)];
    AN2_REQUIRE(rec.cls == TrafficClass::CBR && rec.cbr_admitted == 0,
                "flow " << flow << " is not awaiting restoration");
    for (size_t p = 1; p + 1 < rec.path.size(); ++p)
        net_.netSwitch(rec.path[p]).purgeCbrFlow(flow);
}

}  // namespace an2::topo
