#include "an2/network/network.h"

#include <algorithm>
#include <barrier>
#include <exception>
#include <thread>

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

namespace {

constexpr PicoTime kNever = NetLink::kNever;

/** End of the window that opens at the earliest pending tick `m`:
    m + width - 1, clipped to `until` (width is kNever when the network
    has no links, so the sum is never formed). */
PicoTime
windowEnd(PicoTime m, PicoTime width, PicoTime until)
{
    return until - m < width ? until : m + width - 1;
}

}  // namespace

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
    // The latency bounds how soon one node can affect another; run()'s
    // windows are as wide as the smallest one.
    AN2_REQUIRE(latency_ps > 0,
                "link latency must be positive, got " << latency_ps << " ps");
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

PicoTime
Network::tickShard(int k, int shards, PicoTime end)
{
    PicoTime next = kNever;
    for (size_t n = static_cast<size_t>(k); n < nodes_.size();
         n += static_cast<size_t>(shards)) {
        NetNode& node = *nodes_[n];
        PicoTime t = node.nextTick();
        while (t <= end) {
            node.tick();
            t = node.nextTick();
        }
        next = std::min(next, t);
    }
    return next;
}

void
Network::run(PicoTime until_ps, int threads)
{
    AN2_REQUIRE(threads >= 1, "need at least one thread, got " << threads);
    AN2_REQUIRE(!nodes_.empty(), "network has no nodes");
    PicoTime width = kNever;
    for (const Edge& e : edges_)
        width = std::min(width, e.link->latencyPs());
    PicoTime m = kNever;
    for (const auto& n : nodes_)
        m = std::min(m, n->nextTick());
    const int64_t windows_at_entry = windows_;
    const int shards = std::min(threads, numNodes());
    if (shards == 1)
        runOneShard(until_ps, width, m);
    else
        runSharded(until_ps, width, m, shards);
    obs::count(obs::Counter::ShardWindows, windows_ - windows_at_entry);
}

void
Network::runOneShard(PicoTime until_ps, PicoTime width, PicoTime m)
{
    // A cell sent inside a window arrives after it ends, so sends can
    // publish straight to the in-flight queues: the node that drains a
    // link in this window never sees a cell sent in it.
    while (m <= until_ps) {
        m = tickShard(0, 1, windowEnd(m, width, until_ps));
        ++windows_;
    }
}

void
Network::runSharded(PicoTime until_ps, PicoTime width, PicoTime m,
                    int shards)
{
    // Each link belongs to its upstream node's shard for the commit.
    std::vector<std::vector<int>> shard_links(static_cast<size_t>(shards));
    for (int l = 0; l < numLinks(); ++l) {
        const NodeId up = edges_[static_cast<size_t>(l)].from;
        shard_links[static_cast<size_t>(up % shards)].push_back(l);
    }
    // Sends go to the pending side for the duration of the run; leaving
    // deferred mode at the end commits what is staged.
    auto setDeferred = [&](bool deferred) {
        for (Edge& e : edges_)
            e.link->setDeferred(deferred);
    };
    setDeferred(true);

    // Shared window state, published by the calling thread (shard 0)
    // strictly between barrier phases. A shard that throws (e.g. an
    // invariant check) records the exception and keeps honoring the
    // barrier protocol so nobody deadlocks; the first error is rethrown
    // on the caller's thread after the pool drains.
    PicoTime window_end = 0;
    bool done = false;
    std::vector<PicoTime> local_min(static_cast<size_t>(shards), kNever);
    std::vector<std::exception_ptr> errors(static_cast<size_t>(shards));
    std::barrier sync(shards);

    auto step = [&](int k) {
        auto idx = static_cast<size_t>(k);
        try {
            local_min[idx] = tickShard(k, shards, window_end);
        } catch (...) {
            errors[idx] = std::current_exception();
            local_min[idx] = kNever;
        }
        sync.arrive_and_wait();  // all ticks done
        try {
            for (int l : shard_links[idx])
                edges_[static_cast<size_t>(l)].link->commit();
        } catch (...) {
            if (errors[idx] == nullptr)
                errors[idx] = std::current_exception();
        }
        sync.arrive_and_wait();  // all commits done
    };

    auto worker = [&](int k) {
        while (true) {
            sync.arrive_and_wait();  // window published
            if (done)
                return;
            step(k);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(shards - 1));
    for (int k = 1; k < shards; ++k)
        pool.emplace_back(worker, k);

    std::exception_ptr failure;
    while (m <= until_ps) {
        window_end = windowEnd(m, width, until_ps);
        sync.arrive_and_wait();
        step(0);
        m = kNever;
        for (PicoTime t : local_min)
            m = std::min(m, t);
        ++windows_;
        for (const std::exception_ptr& e : errors)
            if (e != nullptr && failure == nullptr)
                failure = e;
        if (failure != nullptr)
            break;
    }
    done = true;
    sync.arrive_and_wait();
    for (std::thread& t : pool)
        t.join();
    setDeferred(false);
    if (failure != nullptr)
        std::rethrow_exception(failure);
}

void
Network::runFrames(int64_t frames, int threads)
{
    AN2_REQUIRE(frames > 0, "must run at least one frame");
    run(frames * config_.switch_frame_slots * config_.slot_ps, threads);
}

}  // namespace an2
