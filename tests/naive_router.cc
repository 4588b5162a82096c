#include "naive_router.h"

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/matching/wordset.h"

namespace an2::topo {

NaiveRouter::NaiveRouter(const Topology& topo) : topo_(topo)
{
    size_t bits = 2 * static_cast<size_t>(topo.numEdges());
    dir_alive_.assign((bits + 63) / 64, ~UINT64_C(0));
    dist_.resize(static_cast<size_t>(topo.numNodes()));
    dist_epoch_.assign(static_cast<size_t>(topo.numNodes()), 0);
}

void
NaiveRouter::setEdgeDirAlive(int e, bool a_to_b, bool alive)
{
    AN2_REQUIRE(e >= 0 && e < topo_.numEdges(), "unknown edge " << e);
    int bit = 2 * e + (a_to_b ? 0 : 1);
    if (wordset::testBit(dir_alive_.data(), bit) == alive)
        return;
    if (alive)
        wordset::setBit(dir_alive_.data(), bit);
    else
        wordset::clearBit(dir_alive_.data(), bit);
    ++epoch_;
}

bool
NaiveRouter::edgeDirAlive(int e, bool a_to_b) const
{
    AN2_REQUIRE(e >= 0 && e < topo_.numEdges(), "unknown edge " << e);
    return wordset::testBit(dir_alive_.data(), 2 * e + (a_to_b ? 0 : 1));
}

const std::vector<int32_t>&
NaiveRouter::distField(NodeId dst) const
{
    auto d = static_cast<size_t>(dst);
    std::vector<int32_t>& field = dist_[d];
    if (dist_epoch_[d] == epoch_ && !field.empty())
        return field;

    // BFS from dst along *reverse* live directed edges: field[n] is the
    // live-hop distance from n to dst.
    field.assign(static_cast<size_t>(topo_.numNodes()), -1);
    field[d] = 0;
    bfs_queue_.clear();
    bfs_queue_.push_back(dst);
    for (size_t head = 0; head < bfs_queue_.size(); ++head) {
        NodeId n = bfs_queue_[head];
        int32_t dn = field[static_cast<size_t>(n)];
        for (const Neighbor& nb : topo_.neighbors(n)) {
            if (field[static_cast<size_t>(nb.node)] >= 0)
                continue;
            // The hop taken in routing is nb.node -> n; check that
            // direction of the edge.
            const TopoEdge& e = topo_.edge(nb.edge);
            bool m_is_a = (e.a == nb.node);
            if (!edgeDirAlive(nb.edge, m_is_a))
                continue;
            field[static_cast<size_t>(nb.node)] = dn + 1;
            bfs_queue_.push_back(nb.node);
        }
    }
    dist_epoch_[d] = epoch_;
    return field;
}

int
NaiveRouter::distance(NodeId from, NodeId dst) const
{
    AN2_REQUIRE(from >= 0 && from < topo_.numNodes(),
                "unknown node " << from);
    AN2_REQUIRE(dst >= 0 && dst < topo_.numNodes(), "unknown node " << dst);
    return distField(dst)[static_cast<size_t>(from)];
}

void
NaiveRouter::nextHops(NodeId at, NodeId dst, std::vector<Neighbor>& out) const
{
    out.clear();
    const std::vector<int32_t>& field = distField(dst);
    int32_t da = field[static_cast<size_t>(at)];
    if (da <= 0)  // unreachable, or already there
        return;
    for (const Neighbor& nb : topo_.neighbors(at)) {
        if (field[static_cast<size_t>(nb.node)] != da - 1)
            continue;
        const TopoEdge& e = topo_.edge(nb.edge);
        bool at_is_a = (e.a == at);
        if (!edgeDirAlive(nb.edge, at_is_a))
            continue;
        out.push_back(nb);
    }
}

size_t
NaiveRouter::ecmpPick(FlowId flow, NodeId at, size_t n)
{
    AN2_ASSERT(n > 0, "ECMP pick over no candidates");
    uint64_t state = (static_cast<uint64_t>(static_cast<uint32_t>(flow))
                      << 32) |
                     static_cast<uint32_t>(at);
    return static_cast<size_t>(splitmix64(state) % n);
}

std::vector<NodeId>
NaiveRouter::path(NodeId src, NodeId dst, FlowId flow) const
{
    AN2_REQUIRE(src != dst, "flow endpoints must differ");
    std::vector<NodeId> out;
    if (distance(src, dst) < 0)
        return out;
    std::vector<Neighbor> hops;
    NodeId at = src;
    out.push_back(at);
    while (at != dst) {
        nextHops(at, dst, hops);
        AN2_ASSERT(!hops.empty(), "BFS field promised a next hop");
        at = hops[ecmpPick(flow, at, hops.size())].node;
        out.push_back(at);
    }
    return out;
}

}  // namespace an2::topo
