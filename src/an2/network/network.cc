#include "an2/network/network.h"

#include <algorithm>

#include "an2/base/error.h"

namespace an2 {

Network::Network(const NetworkConfig& config)
    : config_(config), admission_(config.switch_frame_slots)
{
    AN2_REQUIRE(config.slot_ps > 0, "slot duration must be positive");
    AN2_REQUIRE(config.switch_frame_slots > 0, "frame must be non-empty");
    AN2_REQUIRE(config.controller_padding >= 0,
                "padding must be non-negative");
}

NodeId
Network::addSwitch(int n_ports, double clock_rate_error,
                   std::unique_ptr<Matcher> vbr_matcher, PicoTime phase_ps,
                   bool fifo_merge)
{
    auto id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<NetSwitch>(
        id, LocalClock(config_.slot_ps, clock_rate_error, phase_ps),
        n_ports, config_.switch_frame_slots, std::move(vbr_matcher),
        fifo_merge));
    is_switch_.push_back(true);
    return id;
}

NodeId
Network::addController(double clock_rate_error, uint64_t seed,
                       PicoTime phase_ps)
{
    auto id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<Controller>(
        id, LocalClock(config_.slot_ps, clock_rate_error, phase_ps),
        controllerFrameSlots(), config_.switch_frame_slots, seed));
    is_switch_.push_back(false);
    return id;
}

NetNode&
Network::node(NodeId id)
{
    AN2_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
                "unknown node " << id);
    return *nodes_[static_cast<size_t>(id)];
}

Controller&
Network::controller(NodeId id)
{
    AN2_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()) &&
                    !is_switch_[static_cast<size_t>(id)],
                "node " << id << " is not a controller");
    return static_cast<Controller&>(*nodes_[static_cast<size_t>(id)]);
}

const Controller&
Network::controller(NodeId id) const
{
    return const_cast<Network*>(this)->controller(id);
}

NetSwitch&
Network::netSwitch(NodeId id)
{
    AN2_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()) &&
                    is_switch_[static_cast<size_t>(id)],
                "node " << id << " is not a switch");
    return static_cast<NetSwitch&>(*nodes_[static_cast<size_t>(id)]);
}

const NetSwitch&
Network::netSwitch(NodeId id) const
{
    return const_cast<Network*>(this)->netSwitch(id);
}

int
Network::connect(NodeId from, PortId from_port, NodeId to, PortId to_port,
                 PicoTime latency_ps)
{
    node(from);  // bounds checks
    node(to);
    auto link = std::make_unique<NetLink>(latency_ps);
    NetLink* raw = link.get();
    // Input end first: if the output end then refuses the link, the
    // input end's due time for it stays kNever, so nothing ever reads
    // the discarded link.
    if (is_switch_[static_cast<size_t>(to)]) {
        netSwitch(to).setInLink(to_port, raw);
    } else {
        AN2_REQUIRE(to_port == 0, "controllers have a single port 0");
        controller(to).setInLink(raw);
    }
    if (is_switch_[static_cast<size_t>(from)]) {
        netSwitch(from).setOutLink(from_port, raw);
    } else {
        AN2_REQUIRE(from_port == 0, "controllers have a single port 0");
        controller(from).setOutLink(raw);
    }
    int index = static_cast<int>(edges_.size());
    edges_.push_back({from, from_port, to, to_port, std::move(link)});
    auto [it, inserted] = edge_index_.try_emplace(edgeKey(from, to), index);
    if (!inserted)
        it->second = kAmbiguousEdge;  // parallel links; lookups are fatal
    LinkId lid = admission_.addLink();
    AN2_ASSERT(lid == static_cast<LinkId>(index),
               "edge/admission link id mismatch");
    return index;
}

int
Network::linkIndexBetween(NodeId from, NodeId to) const
{
    auto it = edge_index_.find(edgeKey(from, to));
    if (it == edge_index_.end())
        return -1;
    AN2_REQUIRE(it->second != kAmbiguousEdge,
                "multiple links from " << from << " to " << to
                                       << "; path is ambiguous");
    return it->second;
}

int
Network::findEdge(NodeId from, NodeId to) const
{
    int found = linkIndexBetween(from, to);
    AN2_REQUIRE(found >= 0, "no link from " << from << " to " << to);
    return found;
}

NetLink&
Network::linkAt(int link)
{
    AN2_REQUIRE(link >= 0 && link < numLinks(),
                "unknown link index " << link);
    return *edges_[static_cast<size_t>(link)].link;
}

const NetLink&
Network::linkAt(int link) const
{
    return const_cast<Network*>(this)->linkAt(link);
}

Network::LinkEnds
Network::linkEnds(int link) const
{
    AN2_REQUIRE(link >= 0 && link < numLinks(),
                "unknown link index " << link);
    const Edge& e = edges_[static_cast<size_t>(link)];
    return {e.from, e.from_port, e.to, e.to_port};
}

void
Network::setLinkUpByIndex(int link, bool up)
{
    linkAt(link).setUp(up);
}

void
Network::setLinkUp(NodeId from, NodeId to, bool up)
{
    edges_[static_cast<size_t>(findEdge(from, to))].link->setUp(up);
}

const NetLink&
Network::linkBetween(NodeId from, NodeId to) const
{
    return *edges_[static_cast<size_t>(findEdge(from, to))].link;
}

FlowId
Network::addCbrFlow(const std::vector<NodeId>& path, int cells_per_frame)
{
    AN2_REQUIRE(path.size() >= 2, "path needs a source and destination");
    AN2_REQUIRE(!is_switch_[static_cast<size_t>(path.front())] &&
                    !is_switch_[static_cast<size_t>(path.back())],
                "path must start and end at controllers");

    std::vector<LinkId> links;
    for (size_t k = 0; k + 1 < path.size(); ++k)
        links.push_back(findEdge(path[k], path[k + 1]));
    if (!admission_.admit(links, cells_per_frame))
        return kNoFlow;

    FlowId flow = next_flow_++;
    for (size_t k = 1; k + 1 < path.size(); ++k) {
        const Edge& in_edge = edges_[static_cast<size_t>(links[k - 1])];
        const Edge& out_edge = edges_[static_cast<size_t>(links[k])];
        bool ok = netSwitch(path[k]).addRoute(flow, in_edge.to_port,
                                              out_edge.from_port,
                                              TrafficClass::CBR,
                                              cells_per_frame);
        // Link admission passed, so per the Slepian-Duguid theorem the
        // switch schedules can always accommodate the reservation.
        AN2_ASSERT(ok, "switch reservation failed after link admission");
    }
    controller(path.front()).addCbrSource(flow, cells_per_frame);
    return flow;
}

FlowId
Network::addVbrFlow(const std::vector<NodeId>& path, double rate)
{
    AN2_REQUIRE(path.size() >= 2, "path needs a source and destination");
    AN2_REQUIRE(!is_switch_[static_cast<size_t>(path.front())] &&
                    !is_switch_[static_cast<size_t>(path.back())],
                "path must start and end at controllers");

    FlowId flow = next_flow_++;
    for (size_t k = 1; k + 1 < path.size(); ++k) {
        int in_edge_idx = findEdge(path[k - 1], path[k]);
        int out_edge_idx = findEdge(path[k], path[k + 1]);
        const Edge& in_edge = edges_[static_cast<size_t>(in_edge_idx)];
        const Edge& out_edge = edges_[static_cast<size_t>(out_edge_idx)];
        bool ok = netSwitch(path[k]).addRoute(flow, in_edge.to_port,
                                              out_edge.from_port,
                                              TrafficClass::VBR, 0);
        AN2_ASSERT(ok, "VBR route installation failed");
    }
    controller(path.front()).addVbrSource(flow, rate);
    return flow;
}

void
Network::run(PicoTime until_ps)
{
    AN2_REQUIRE(!nodes_.empty(), "network has no nodes");
    // Rebuilt on every entry, so nodes added between calls join the ring.
    ticks_.clear();
    for (const auto& n : nodes_)
        ticks_.push_back({n->nextTick(), n->id()});
    std::sort(ticks_.begin(), ticks_.end());
    // ticks_ is a ring sorted from `head`. A tick advances only its own
    // node's clock, by about one period, so the re-keyed entry goes back
    // in from the ring's back (the slot it was popped from) and seldom
    // passes another entry on the way.
    const size_t n = ticks_.size();
    size_t head = 0;
    while (ticks_[head].at <= until_ps) {
        TickEntry entry = ticks_[head];
        NetNode& next = *nodes_[static_cast<size_t>(entry.node)];
        next.tick();
        entry.at = next.nextTick();
        size_t hole = head;
        for (size_t passed = 1; passed < n; ++passed) {
            size_t prev = hole == 0 ? n - 1 : hole - 1;
            if (!(entry < ticks_[prev]))
                break;
            ticks_[hole] = ticks_[prev];  // shift a later tick up one
            hole = prev;
        }
        ticks_[hole] = entry;
        head = head + 1 == n ? 0 : head + 1;
    }
}

void
Network::runFrames(int64_t frames)
{
    AN2_REQUIRE(frames > 0, "must run at least one frame");
    run(frames * config_.switch_frame_slots * config_.slot_ps);
}

}  // namespace an2
