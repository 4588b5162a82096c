// Tests for the self-routing fabrics (an2/fabric/batcher_banyan.h):
// banyan self-routing, internal blocking, Batcher sorting, and the
// non-blocking theorem behind Starlite/Sunshine-style switches (§2.2).
#include "an2/fabric/batcher_banyan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "an2/base/rng.h"

namespace an2 {
namespace {

std::vector<FabricCell>
makeCells(const std::vector<std::pair<PortId, PortId>>& pairs)
{
    std::vector<FabricCell> cells;
    int64_t tag = 0;
    for (auto [i, j] : pairs)
        cells.push_back({i, j, tag++});
    return cells;
}

TEST(PowerOfTwoTest, Classification)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(-4));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(BanyanTest, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(BanyanNetwork(6), UsageError);
    EXPECT_THROW(BanyanNetwork(0), UsageError);
}

TEST(BanyanTest, SingleCellSelfRoutesFromAnywhere)
{
    for (int n : {2, 4, 8, 16, 32}) {
        BanyanNetwork net(n);
        for (PortId i = 0; i < n; ++i) {
            for (PortId j = 0; j < n; ++j) {
                FabricResult r = net.route(makeCells({{i, j}}));
                ASSERT_EQ(r.delivered.size(), 1u)
                    << "n=" << n << " " << i << "->" << j;
                EXPECT_EQ(r.delivered[0].output, j);
                EXPECT_EQ(r.conflicts, 0);
            }
        }
    }
}

TEST(BanyanTest, StageCountIsLog2N)
{
    EXPECT_EQ(BanyanNetwork(16).stages(), 4);
    EXPECT_EQ(BanyanNetwork(2).stages(), 1);
}

TEST(BanyanTest, IdentityPermutationPasses)
{
    BanyanNetwork net(8);
    std::vector<std::pair<PortId, PortId>> pairs;
    for (PortId p = 0; p < 8; ++p)
        pairs.emplace_back(p, p);
    FabricResult r = net.route(makeCells(pairs));
    EXPECT_EQ(r.delivered.size(), 8u);
    EXPECT_EQ(r.conflicts, 0);
}

TEST(BanyanTest, SomePermutationsBlockInternally)
{
    // The defining weakness (§2.2): even with distinct outputs, many
    // permutations collide inside the fabric.
    BanyanNetwork net(8);
    Xoshiro256 rng(5);
    std::vector<PortId> perm(8);
    std::iota(perm.begin(), perm.end(), 0);
    int blocked_permutations = 0;
    constexpr int kTrials = 300;
    for (int t = 0; t < kTrials; ++t) {
        rng.shuffle(perm);
        std::vector<std::pair<PortId, PortId>> pairs;
        for (PortId p = 0; p < 8; ++p)
            pairs.emplace_back(p, perm[static_cast<size_t>(p)]);
        FabricResult r = net.route(makeCells(pairs));
        EXPECT_EQ(r.delivered.size() + r.blocked.size(), 8u);
        if (!r.blocked.empty())
            ++blocked_permutations;
    }
    // The vast majority of random permutations block an 8x8 banyan.
    EXPECT_GT(blocked_permutations, kTrials / 2);
}

TEST(BanyanTest, DuplicateInputRejected)
{
    BanyanNetwork net(4);
    EXPECT_THROW(net.route(makeCells({{1, 2}, {1, 3}})), UsageError);
}

TEST(BanyanTest, DeliveredPlusBlockedConservesCells)
{
    BanyanNetwork net(16);
    Xoshiro256 rng(6);
    for (int t = 0; t < 200; ++t) {
        std::vector<std::pair<PortId, PortId>> pairs;
        for (PortId i = 0; i < 16; ++i)
            if (rng.nextBernoulli(0.6))
                pairs.emplace_back(i, static_cast<PortId>(
                                          rng.nextBelow(16)));
        FabricResult r = net.route(makeCells(pairs));
        EXPECT_EQ(r.delivered.size() + r.blocked.size(), pairs.size());
        for (const FabricCell& c : r.delivered) {
            // Delivered cells really carry their own destination.
            EXPECT_GE(c.output, 0);
            EXPECT_LT(c.output, 16);
        }
    }
}

TEST(BatcherTest, SortsByDestination)
{
    BatcherSorter sorter(8);
    auto cells = makeCells({{0, 7}, {1, 2}, {3, 5}, {6, 0}, {7, 3}});
    auto sorted = sorter.sort(cells);
    ASSERT_EQ(sorted.size(), 5u);
    for (size_t k = 0; k < sorted.size(); ++k) {
        EXPECT_EQ(sorted[k].input, static_cast<PortId>(k));  // concentrated
        if (k > 0) {
            EXPECT_LE(sorted[k - 1].output, sorted[k].output);
        }
    }
}

TEST(BatcherTest, TagsSurviveSorting)
{
    BatcherSorter sorter(8);
    auto cells = makeCells({{2, 6}, {5, 1}});
    auto sorted = sorter.sort(cells);
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].output, 1);
    EXPECT_EQ(sorted[0].tag, 1);  // tag of the {5,1} cell
    EXPECT_EQ(sorted[1].tag, 0);
}

TEST(BatcherTest, SortsDuplicateDestinations)
{
    BatcherSorter sorter(8);
    auto cells = makeCells({{0, 3}, {4, 3}, {7, 3}});
    auto sorted = sorter.sort(cells);
    ASSERT_EQ(sorted.size(), 3u);
    for (const auto& c : sorted)
        EXPECT_EQ(c.output, 3);
}

TEST(BatcherTest, MatchesStdSortOnRandomInputs)
{
    Xoshiro256 rng(7);
    for (int n : {4, 16, 64}) {
        BatcherSorter sorter(n);
        for (int t = 0; t < 50; ++t) {
            std::vector<std::pair<PortId, PortId>> pairs;
            for (PortId i = 0; i < n; ++i)
                if (rng.nextBernoulli(0.5))
                    pairs.emplace_back(i, static_cast<PortId>(
                                              rng.nextBelow(
                                                  static_cast<uint64_t>(n))));
            auto sorted = sorter.sort(makeCells(pairs));
            std::vector<PortId> dests;
            for (const auto& p : pairs)
                dests.push_back(p.second);
            std::sort(dests.begin(), dests.end());
            ASSERT_EQ(sorted.size(), dests.size());
            for (size_t k = 0; k < dests.size(); ++k)
                EXPECT_EQ(sorted[k].output, dests[k]);
        }
    }
}

TEST(BatcherBanyanTest, NeverBlocksOnDistinctOutputs)
{
    // The §2.2 theorem: sorted + concentrated + distinct outputs =>
    // conflict-free through the banyan. Property-swept over random
    // partial matchings of several sizes.
    Xoshiro256 rng(8);
    for (int n : {4, 8, 16, 32}) {
        BatcherBanyanFabric fabric(n);
        for (int t = 0; t < 100; ++t) {
            std::vector<PortId> outs(static_cast<size_t>(n));
            std::iota(outs.begin(), outs.end(), 0);
            rng.shuffle(outs);
            std::vector<std::pair<PortId, PortId>> pairs;
            for (PortId i = 0; i < n; ++i)
                if (rng.nextBernoulli(0.7))
                    pairs.emplace_back(i, outs[static_cast<size_t>(i)]);
            FabricResult r = fabric.route(makeCells(pairs));
            EXPECT_EQ(r.delivered.size(), pairs.size());
            EXPECT_EQ(r.conflicts, 0);
            // Every injected cell arrived, identified by tag.
            std::set<int64_t> tags;
            for (const FabricCell& c : r.delivered)
                tags.insert(c.tag);
            EXPECT_EQ(tags.size(), pairs.size());
        }
    }
}

TEST(BatcherBanyanTest, FullPermutationsAllPass)
{
    BatcherBanyanFabric fabric(16);
    Xoshiro256 rng(9);
    std::vector<PortId> perm(16);
    std::iota(perm.begin(), perm.end(), 0);
    for (int t = 0; t < 200; ++t) {
        rng.shuffle(perm);
        std::vector<std::pair<PortId, PortId>> pairs;
        for (PortId i = 0; i < 16; ++i)
            pairs.emplace_back(i, perm[static_cast<size_t>(i)]);
        FabricResult r = fabric.route(makeCells(pairs));
        EXPECT_EQ(r.delivered.size(), 16u);
    }
}

TEST(BatcherBanyanTest, DuplicateOutputsRejected)
{
    BatcherBanyanFabric fabric(8);
    EXPECT_THROW(fabric.route(makeCells({{0, 3}, {1, 3}})), UsageError);
}

}  // namespace
}  // namespace an2
