/**
 * @file
 * expectSameMatrix: the view-by-view comparison of two request matrices
 * shared by the tests that build one matrix two ways.
 */
#ifndef AN2_TESTS_SAME_MATRIX_H
#define AN2_TESTS_SAME_MATRIX_H

#include <gtest/gtest.h>

#include "an2/matching/request_matrix.h"

namespace an2 {

/** Expect every view of `a` and `b` to be equal: both mask sets, the
    requested outputs and the edge count. */
inline void
expectSameMatrix(const RequestMatrix& a, const RequestMatrix& b)
{
    ASSERT_EQ(a.numInputs(), b.numInputs());
    ASSERT_EQ(a.numOutputs(), b.numOutputs());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (PortId i = 0; i < a.numInputs(); ++i)
        for (int w = 0; w < a.rowWords(); ++w)
            EXPECT_EQ(a.rowMask(i)[w], b.rowMask(i)[w]) << "row " << i;
    for (PortId j = 0; j < a.numOutputs(); ++j)
        for (int w = 0; w < a.colWords(); ++w)
            EXPECT_EQ(a.colMask(j)[w], b.colMask(j)[w]) << "column " << j;
    for (int w = 0; w < a.rowWords(); ++w)
        EXPECT_EQ(a.requestedOutputs()[w], b.requestedOutputs()[w]);
}

}  // namespace an2

#endif  // AN2_TESTS_SAME_MATRIX_H
