// Tests for the crossbar fabric (an2/fabric/crossbar.h).
#include "an2/fabric/crossbar.h"

#include <gtest/gtest.h>

namespace an2 {
namespace {

TEST(CrossbarTest, StartsUnconfigured)
{
    Crossbar xb(4);
    for (PortId i = 0; i < 4; ++i)
        EXPECT_EQ(xb.routeOf(i), kNoPort);
    EXPECT_EQ(xb.slots(), 0);
    EXPECT_EQ(xb.crosspoints(), 16);
}

TEST(CrossbarTest, ConfigureSetsRoutes)
{
    Crossbar xb(4);
    Matching m(4);
    m.add(0, 2);
    m.add(3, 1);
    xb.configure(m);
    EXPECT_EQ(xb.routeOf(0), 2);
    EXPECT_EQ(xb.routeOf(3), 1);
    EXPECT_EQ(xb.routeOf(1), kNoPort);
    EXPECT_EQ(xb.slots(), 1);
}

TEST(CrossbarTest, ForwardRequiresConfiguredCrosspoint)
{
    Crossbar xb(4);
    Matching m(4);
    m.add(0, 2);
    xb.configure(m);
    Cell ok;
    ok.input = 0;
    ok.output = 2;
    EXPECT_NO_THROW(xb.forward(ok));
    Cell wrong;
    wrong.input = 0;
    wrong.output = 3;
    EXPECT_THROW(xb.forward(wrong), InternalError);
    Cell unrouted;
    unrouted.input = 1;
    unrouted.output = 1;
    EXPECT_THROW(xb.forward(unrouted), InternalError);
}

TEST(CrossbarTest, UtilizationAccounting)
{
    Crossbar xb(2);
    Matching full(2);
    full.add(0, 0);
    full.add(1, 1);
    Cell c00;
    c00.input = 0;
    c00.output = 0;
    Cell c11;
    c11.input = 1;
    c11.output = 1;
    xb.configure(full);
    xb.forward(c00);
    xb.forward(c11);
    Matching empty(2);
    xb.configure(empty);
    EXPECT_EQ(xb.cellsForwarded(), 2);
    EXPECT_EQ(xb.slots(), 2);
    EXPECT_DOUBLE_EQ(xb.utilization(), 0.5);
}

TEST(CrossbarTest, MismatchedMatchingRejected)
{
    Crossbar xb(4);
    Matching m(3);
    EXPECT_THROW(xb.configure(m), UsageError);
}

TEST(CrossbarTest, RejectsBadDimensions)
{
    EXPECT_THROW(Crossbar(-1), UsageError);
    EXPECT_THROW(Crossbar(0), UsageError);
    EXPECT_THROW(Crossbar(4, -1), UsageError);
    EXPECT_THROW(Crossbar(-1, 4), UsageError);
}

TEST(CrossbarTest, RectangularSupported)
{
    Crossbar xb(2, 5);
    EXPECT_EQ(xb.numInputs(), 2);
    EXPECT_EQ(xb.numOutputs(), 5);
    EXPECT_EQ(xb.crosspoints(), 10);
    Matching m(2, 5);
    m.add(1, 4);
    xb.configure(m);
    EXPECT_EQ(xb.routeOf(1), 4);
}

}  // namespace
}  // namespace an2
