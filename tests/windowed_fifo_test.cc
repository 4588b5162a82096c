// Tests for windowed FIFO contention resolution (windowed_fifo.h), the
// oracle of the switch core's FIFO input form.
#include "windowed_fifo.h"

#include <gtest/gtest.h>

namespace an2 {
namespace {

TEST(WindowedFifoTest, EmptyQueuesNoMatch)
{
    Xoshiro256 rng(1);
    std::vector<std::vector<PortId>> dests(4);
    auto res = windowedFifoMatch(dests, 4, 1, rng);
    EXPECT_EQ(res.matching.size(), 0);
    for (int p : res.positions)
        EXPECT_EQ(p, -1);
}

TEST(WindowedFifoTest, SingleRoundServesOnlyHeads)
{
    Xoshiro256 rng(2);
    // Input 0's head wants output 0; input 1's head also wants output 0
    // but has output 1 second in queue. With one round, the loser cannot
    // reach its second cell.
    std::vector<std::vector<PortId>> dests = {{0}, {0, 1}};
    int served_second = 0;
    for (int t = 0; t < 200; ++t) {
        auto res = windowedFifoMatch(dests, 2, 1, rng);
        EXPECT_EQ(res.matching.size(), 1);  // HOL blocking
        if (res.positions[1] == 1)
            ++served_second;
    }
    EXPECT_EQ(served_second, 0);
}

TEST(WindowedFifoTest, SecondRoundRelievesHolBlocking)
{
    Xoshiro256 rng(3);
    std::vector<std::vector<PortId>> dests = {{0}, {0, 1}};
    int both_served = 0;
    for (int t = 0; t < 200; ++t) {
        auto res = windowedFifoMatch(dests, 2, 2, rng);
        if (res.matching.size() == 2)
            ++both_served;
    }
    // Whenever input 1 loses round one (about half the time) it wins
    // output 1 in round two; when it wins round one, input 0 is blocked.
    EXPECT_GT(both_served, 50);
}

TEST(WindowedFifoTest, PositionsIdentifyServedCell)
{
    Xoshiro256 rng(4);
    std::vector<std::vector<PortId>> dests = {{3, 2, 1}};
    auto res = windowedFifoMatch(dests, 4, 3, rng);
    ASSERT_EQ(res.matching.size(), 1);
    EXPECT_EQ(res.positions[0], 0);  // head always wins uncontended
    EXPECT_EQ(res.matching.outputOf(0), 3);
}

TEST(WindowedFifoTest, ContentionWinnerUniform)
{
    Xoshiro256 rng(5);
    std::vector<std::vector<PortId>> dests = {{0}, {0}, {0}};
    std::vector<int> wins(3, 0);
    constexpr int kTrials = 30000;
    for (int t = 0; t < kTrials; ++t) {
        auto res = windowedFifoMatch(dests, 1, 1, rng);
        ASSERT_EQ(res.matching.size(), 1);
        ++wins[static_cast<size_t>(res.matching.inputOf(0))];
    }
    for (int w : wins)
        EXPECT_NEAR(w / static_cast<double>(kTrials), 1.0 / 3, 0.02);
}

TEST(WindowedFifoTest, ClaimedOutputSkippedInLaterRounds)
{
    Xoshiro256 rng(6);
    // Input 0 takes output 0 in round one (uncontended). Input 1's queue
    // is [0, 1]: it loses output 0, then must win output 1 in round two.
    std::vector<std::vector<PortId>> dests = {{0}, {0, 1}};
    bool saw_skip = false;
    for (int t = 0; t < 100; ++t) {
        auto res = windowedFifoMatch(dests, 2, 2, rng);
        if (res.matching.inputOf(0) == 0 && res.matching.outputOf(1) == 1) {
            EXPECT_EQ(res.positions[1], 1);
            saw_skip = true;
        }
    }
    EXPECT_TRUE(saw_skip);
}

TEST(WindowedFifoTest, MatchingAlwaysConflictFree)
{
    Xoshiro256 rng(7);
    Xoshiro256 pattern_rng(8);
    for (int t = 0; t < 100; ++t) {
        std::vector<std::vector<PortId>> dests(8);
        for (auto& q : dests) {
            auto len = pattern_rng.nextBelow(5);
            for (uint64_t k = 0; k < len; ++k)
                q.push_back(static_cast<PortId>(pattern_rng.nextBelow(8)));
        }
        auto res = windowedFifoMatch(dests, 8, 3, rng);
        // positions consistent with matching, no duplicate outputs.
        std::vector<int> out_used(8, 0);
        for (PortId i = 0; i < 8; ++i) {
            PortId j = res.matching.outputOf(i);
            if (j == kNoPort) {
                EXPECT_EQ(res.positions[static_cast<size_t>(i)], -1);
                continue;
            }
            int pos = res.positions[static_cast<size_t>(i)];
            ASSERT_GE(pos, 0);
            ASSERT_LT(pos, static_cast<int>(dests[static_cast<size_t>(i)]
                                                .size()));
            EXPECT_EQ(dests[static_cast<size_t>(i)][static_cast<size_t>(pos)],
                      j);
            ++out_used[static_cast<size_t>(j)];
        }
        for (int u : out_used)
            EXPECT_LE(u, 1);
    }
}

TEST(WindowedFifoTest, InvalidArgumentsRejected)
{
    Xoshiro256 rng(9);
    std::vector<std::vector<PortId>> dests = {{0}};
    EXPECT_THROW(windowedFifoMatch({}, 2, 1, rng), UsageError);
    EXPECT_THROW(windowedFifoMatch(dests, 0, 1, rng), UsageError);
    EXPECT_THROW(windowedFifoMatch(dests, 2, 0, rng), UsageError);
    std::vector<std::vector<PortId>> bad = {{5}};
    EXPECT_THROW(windowedFifoMatch(bad, 2, 1, rng), UsageError);
}

}  // namespace
}  // namespace an2
