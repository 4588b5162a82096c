/**
 * @file
 * The scheduling result: a conflict-free pairing of inputs to outputs.
 *
 * A Matching assigns each input to at most one output. Each output is
 * normally matched to at most one input; an output capacity k > 1 models
 * the replicated-fabric generalization of paper §3.1, where up to k cells
 * may be delivered to one output in a slot (requiring output buffers).
 */
#ifndef AN2_MATCHING_MATCHING_H
#define AN2_MATCHING_MATCHING_H

#include <utility>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/types.h"
#include "an2/matching/request_matrix.h"

namespace an2 {

/** A legal crossbar configuration for one time slot. */
class Matching
{
  public:
    /**
     * @param n_inputs Number of input ports.
     * @param n_outputs Number of output ports.
     * @param output_capacity Max inputs matched to one output (default 1).
     */
    Matching(int n_inputs, int n_outputs, int output_capacity = 1);

    /** Square n x n matching with unit output capacity. */
    explicit Matching(int n) : Matching(n, n, 1) {}

    /**
     * Empty the matching and re-dimension it, preserving allocated
     * capacity when the dimensions are unchanged — the per-slot reuse
     * path of the switch hot loop (no heap traffic in steady state).
     */
    void reset(int n_inputs, int n_outputs, int output_capacity = 1);

    int numInputs() const { return static_cast<int>(in2out_.size()); }
    int numOutputs() const
    {
        return static_cast<int>(out_degree_.size());
    }

    /** Max inputs that may be matched to a single output. */
    int outputCapacity() const { return output_capacity_; }

    /**
     * Pair input i with output j. The input must be unmatched and the
     * output must have remaining capacity. Defined here: the matchers
     * call it once per accepted grant.
     */
    void
    add(PortId i, PortId j)
    {
        AN2_REQUIRE(i >= 0 && i < numInputs(),
                    "input " << i << " out of range");
        AN2_REQUIRE(j >= 0 && j < numOutputs(),
                    "output " << j << " out of range");
        AN2_ASSERT(!isInputMatched(i), "input " << i << " already matched");
        AN2_ASSERT(!isOutputSaturated(j), "output " << j << " saturated");
        in2out_[static_cast<size_t>(i)] = j;
        ++out_degree_[static_cast<size_t>(j)];
        ++size_;
    }

    /** Remove the pairing of input i (which must be matched). */
    void removeInput(PortId i);

    /** Output matched to input i, or kNoPort. */
    PortId outputOf(PortId i) const { return in2out_.at(static_cast<size_t>(i)); }

    /**
     * The lowest input matched to output j, or kNoPort. An O(n) scan:
     * only input -> output pairs are stored, so add() and reset() keep
     * no per-output lists.
     */
    PortId inputOf(PortId j) const;

    bool isInputMatched(PortId i) const { return outputOf(i) != kNoPort; }

    /** Number of inputs currently matched to output j. */
    int outputDegree(PortId j) const
    {
        return out_degree_.at(static_cast<size_t>(j));
    }

    /** True when output j has no remaining capacity. */
    bool isOutputSaturated(PortId j) const
    {
        return outputDegree(j) >= output_capacity_;
    }

    /** Number of matched (input, output) pairs. */
    int size() const { return size_; }

    /** All matched pairs as (input, output), in input order. */
    std::vector<std::pair<PortId, PortId>> pairs() const;

    /**
     * True when every pairing corresponds to a request in `req` (the
     * matching never connects ports with nothing to send).
     */
    bool isLegalFor(const RequestMatrix& req) const;

    /**
     * True when no pairing can be trivially added: every requested (i,j)
     * has input i matched or output j saturated. This is the "maximal
     * match" property of paper §3.4.
     */
    bool isMaximalFor(const RequestMatrix& req) const;

  private:
    std::vector<PortId> in2out_;
    std::vector<int> out_degree_;
    int output_capacity_;
    int size_ = 0;
};

}  // namespace an2

#endif  // AN2_MATCHING_MATCHING_H
