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

/** Expect every view of `a` and `b` to be equal: liveness, both mask
    sets, the requested outputs, the edge count, and every raw wire
    (compared by reviving copies of both). */
inline void
expectSameMatrix(const RequestMatrix& a, const RequestMatrix& b)
{
    ASSERT_EQ(a.numInputs(), b.numInputs());
    ASSERT_EQ(a.numOutputs(), b.numOutputs());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (PortId i = 0; i < a.numInputs(); ++i) {
        EXPECT_EQ(a.inputLive(i), b.inputLive(i)) << "input " << i;
        for (int w = 0; w < a.rowWords(); ++w)
            EXPECT_EQ(a.rowMask(i)[w], b.rowMask(i)[w]) << "row " << i;
    }
    for (PortId j = 0; j < a.numOutputs(); ++j) {
        EXPECT_EQ(a.outputLive(j), b.outputLive(j)) << "output " << j;
        for (int w = 0; w < a.colWords(); ++w)
            EXPECT_EQ(a.colMask(j)[w], b.colMask(j)[w]) << "column " << j;
    }
    for (int w = 0; w < a.rowWords(); ++w)
        EXPECT_EQ(a.requestedOutputs()[w], b.requestedOutputs()[w]);
    RequestMatrix wires_a(a);
    RequestMatrix wires_b(b);
    for (RequestMatrix* m : {&wires_a, &wires_b}) {
        for (PortId i = 0; i < m->numInputs(); ++i)
            m->setInputLive(i, true);
        for (PortId j = 0; j < m->numOutputs(); ++j)
            m->setOutputLive(j, true);
    }
    for (PortId i = 0; i < a.numInputs(); ++i)
        for (PortId j = 0; j < a.numOutputs(); ++j)
            EXPECT_EQ(wires_a.has(i, j), wires_b.has(i, j))
                << "wire (" << i << "," << j << ")";
}

}  // namespace an2

#endif  // AN2_TESTS_SAME_MATRIX_H
