// Tests for the composite statistical+PIM scheduler
// (an2/matching/fill_in.h) — §5.2's "fill unused slots with datagram
// traffic" rule.
#include "an2/matching/fill_in.h"

#include <gtest/gtest.h>

#include "an2/matching/pim.h"
#include "an2/matching/statistical.h"

namespace an2 {
namespace {

std::unique_ptr<FillInMatcher>
statisticalPlusPim(const Matrix<int>& alloc, uint64_t seed)
{
    StatisticalConfig scfg;
    scfg.units = 1000;
    scfg.rounds = 2;
    scfg.seed = seed;
    PimConfig pcfg;
    pcfg.iterations = 4;
    pcfg.seed = seed + 1;
    return std::make_unique<FillInMatcher>(
        std::make_unique<StatisticalMatcher>(alloc, scfg),
        std::make_unique<PimMatcher>(pcfg));
}

TEST(FillInTest, RequiresBothSchedulers)
{
    EXPECT_THROW(FillInMatcher(nullptr, std::make_unique<PimMatcher>()),
                 UsageError);
}

TEST(FillInTest, ResultIsLegalAndConflictFree)
{
    Matrix<int> alloc(8, 8, 100);
    auto matcher = statisticalPlusPim(alloc, 5);
    Xoshiro256 rng(6);
    for (int t = 0; t < 200; ++t) {
        auto req = RequestMatrix::bernoulli(8, 0.6, rng);
        Matching m = matcher->match(req);
        EXPECT_TRUE(m.isLegalFor(req));
        for (PortId j = 0; j < 8; ++j)
            EXPECT_LE(m.outputDegree(j), 1);
    }
}

TEST(FillInTest, FillInRestoresWorkConservation)
{
    // Fully backlogged switch: plain statistical matching wastes ~28% of
    // slots; with PIM fill-in the match is maximal, so a fully requested
    // switch moves N cells every slot.
    constexpr int kN = 8;
    Matrix<int> alloc(kN, kN, 1000 / kN);
    auto matcher = statisticalPlusPim(alloc, 7);
    RequestMatrix req(kN);
    for (PortId i = 0; i < kN; ++i)
        for (PortId j = 0; j < kN; ++j)
            req.set(i, j, 1);
    int64_t total = 0;
    constexpr int kSlots = 2000;
    for (int s = 0; s < kSlots; ++s) {
        Matching m = matcher->match(req);
        EXPECT_TRUE(m.isMaximalFor(req));
        total += m.size();
    }
    EXPECT_EQ(total, static_cast<int64_t>(kSlots) * kN);
    EXPECT_GT(matcher->fillInPairs(), 0);
    EXPECT_GT(matcher->primaryPairs(), matcher->fillInPairs());
}

TEST(FillInTest, AllocationsStillHonoredUnderFillIn)
{
    // The Figure 8 scenario with fill-in: connection (3,0)'s allocated
    // quarter is still delivered at >= the 72% statistical floor (the
    // fill-in only adds service, never subtracts).
    constexpr int kN = 4;
    Matrix<int> alloc(kN, kN, 0);
    for (PortId j = 0; j < kN; ++j)
        alloc(3, j) = 250;
    for (PortId i = 0; i < 3; ++i)
        alloc(i, 0) = 250;
    auto matcher = statisticalPlusPim(alloc, 8);
    RequestMatrix req(kN);
    for (PortId i = 0; i < 3; ++i)
        req.set(i, 0, 1);
    for (PortId j = 0; j < kN; ++j)
        req.set(3, j, 1);
    Matrix<int64_t> served(kN, kN, 0);
    constexpr int kSlots = 40'000;
    for (int s = 0; s < kSlots; ++s)
        for (auto [i, j] : matcher->match(req).pairs())
            ++served(i, j);
    double share_30 = static_cast<double>(served(3, 0)) / kSlots;
    EXPECT_GE(share_30, 0.25 * 0.70);
    // Work conservation: every output-0 slot is used by someone.
    int64_t out0 = served(0, 0) + served(1, 0) + served(2, 0) + served(3, 0);
    EXPECT_EQ(out0, kSlots);
}

TEST(FillInTest, NameAndCountersCompose)
{
    Matrix<int> alloc(4, 4, 0);
    alloc(0, 0) = 500;
    auto matcher = statisticalPlusPim(alloc, 9);
    EXPECT_NE(matcher->name().find("Statistical"), std::string::npos);
    EXPECT_NE(matcher->name().find("PIM"), std::string::npos);
    RequestMatrix req(4);
    req.set(1, 1, 1);  // no allocation: only the fill-in can serve it
    Matching m = matcher->match(req);
    EXPECT_EQ(m.outputOf(1), 1);
    EXPECT_EQ(matcher->fillInPairs(), 1);
}

}  // namespace
}  // namespace an2
