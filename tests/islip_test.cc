// Tests for the iSLIP baseline (an2/matching/islip.h).
#include "an2/matching/islip.h"

#include <gtest/gtest.h>

#include "an2/base/matrix.h"
#include "an2/base/rng.h"

namespace an2 {
namespace {

TEST(IslipTest, EmptyRequestsEmptyMatch)
{
    IslipMatcher islip;
    RequestMatrix req(8);
    EXPECT_EQ(islip.match(req).size(), 0);
}

TEST(IslipTest, LegalOnRandomPatterns)
{
    IslipMatcher islip(4);
    Xoshiro256 rng(3);
    for (int t = 0; t < 50; ++t) {
        auto req = RequestMatrix::bernoulli(16, 0.4, rng);
        Matching m = islip.match(req);
        EXPECT_TRUE(m.isLegalFor(req));
    }
}

TEST(IslipTest, ManyIterationsReachMaximal)
{
    IslipMatcher islip(16);
    Xoshiro256 rng(5);
    for (int t = 0; t < 50; ++t) {
        auto req = RequestMatrix::bernoulli(16, 0.5, rng);
        Matching m = islip.match(req);
        EXPECT_TRUE(m.isMaximalFor(req));
    }
}

TEST(IslipTest, PointersDesynchronizeUnderFullLoad)
{
    // The classic iSLIP result: with every VOQ full, the rotating
    // pointers settle into a time-division pattern serving all N^2
    // connections; the matching saturates the switch every slot.
    constexpr int kN = 8;
    IslipMatcher islip(1);
    RequestMatrix req(kN);
    for (PortId i = 0; i < kN; ++i)
        for (PortId j = 0; j < kN; ++j)
            req.set(i, j, 1);
    // Warm up so the pointers desynchronize.
    for (int s = 0; s < 100; ++s)
        islip.match(req);
    for (int s = 0; s < 50; ++s)
        EXPECT_EQ(islip.match(req).size(), kN);
}

TEST(IslipTest, FairAcrossConnectionsUnderFullLoad)
{
    constexpr int kN = 4;
    IslipMatcher islip(1);
    RequestMatrix req(kN);
    for (PortId i = 0; i < kN; ++i)
        for (PortId j = 0; j < kN; ++j)
            req.set(i, j, 1);
    Matrix<int> served(kN, kN, 0);
    constexpr int kSlots = 4000;
    for (int s = 0; s < kSlots; ++s) {
        Matching m = islip.match(req);
        for (auto [i, j] : m.pairs())
            ++served(i, j);
    }
    // Every connection should receive roughly 1/N of its output link.
    for (PortId i = 0; i < kN; ++i)
        for (PortId j = 0; j < kN; ++j)
            EXPECT_NEAR(served(i, j) / static_cast<double>(kSlots),
                        1.0 / kN, 0.08)
                << "connection " << i << "->" << j;
}

TEST(IslipTest, DeterministicNoRandomness)
{
    IslipMatcher a(2);
    IslipMatcher b(2);
    Xoshiro256 rng(7);
    for (int t = 0; t < 20; ++t) {
        auto req = RequestMatrix::bernoulli(8, 0.6, rng);
        Matching ma = a.match(req);
        Matching mb = b.match(req);
        for (PortId i = 0; i < 8; ++i)
            EXPECT_EQ(ma.outputOf(i), mb.outputOf(i));
    }
}

TEST(IslipTest, ResetClearsPointers)
{
    IslipMatcher islip(1);
    RequestMatrix req(4);
    req.set(0, 0, 1);
    islip.match(req);
    islip.reset();
    RequestMatrix bigger(8);
    EXPECT_NO_THROW(islip.match(bigger));
}

TEST(IslipTest, SizeChangeWithoutResetFails)
{
    IslipMatcher islip(1);
    RequestMatrix req(4);
    islip.match(req);
    RequestMatrix bigger(8);
    EXPECT_THROW(islip.match(bigger), UsageError);
}

TEST(IslipTest, InvalidIterationsRejected)
{
    EXPECT_THROW(IslipMatcher(0), UsageError);
    EXPECT_THROW(IslipMatcher(0, WarmStart::On), UsageError);
}

TEST(IslipTest, WarmFormMatchesBackendForm)
{
    // IslipMatcher(iterations, warm) is the word-parallel core, as is
    // the three-argument form with MatcherBackend::Auto.
    for (WarmStart warm : {WarmStart::Off, WarmStart::On}) {
        IslipMatcher with_backend(4, MatcherBackend::Auto, warm);
        IslipMatcher plain(4, warm);
        EXPECT_EQ(plain.name(), with_backend.name());
        // One matrix patched in place, so the warm path sees real edge
        // changes and unchanged epochs alike.
        RequestMatrix req(24);
        Xoshiro256 rng(17);
        for (int slot = 0; slot < 400; ++slot) {
            for (int k = 0; k < 6; ++k) {
                const auto i = static_cast<PortId>(rng.nextBelow(24));
                const auto j = static_cast<PortId>(rng.nextBelow(24));
                if (req.has(i, j) && rng.nextBelow(2) == 0)
                    req.set(i, j, false);
                else if (slot % 7 != 0)
                    req.set(i, j, true);
            }
            EXPECT_EQ(plain.match(req).pairs(),
                      with_backend.match(req).pairs())
                << "slot " << slot;
        }
    }
}

}  // namespace
}  // namespace an2
