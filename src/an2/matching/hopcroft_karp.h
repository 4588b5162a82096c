/**
 * @file
 * Hopcroft–Karp maximum bipartite matching, the §3.4 upper-bound
 * comparator. The paper argues that maximum matching is (a) too slow for a
 * per-slot hardware scheduler and (b) can starve connections; this
 * implementation lets the benches quantify (a) and demonstrate (b), and
 * lets tests verify that PIM's maximal matches are within the classic 2x
 * bound of the maximum.
 */
#ifndef AN2_MATCHING_HOPCROFT_KARP_H
#define AN2_MATCHING_HOPCROFT_KARP_H

#include <vector>

#include "an2/matching/matcher.h"

namespace an2 {

/**
 * Exact maximum matching in O(E * sqrt(V)). Deterministic. Each input's
 * edges are read straight from its request row mask, in ascending output
 * order, and the search state is reused across calls.
 */
class HopcroftKarpMatcher final : public Matcher
{
  public:
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override { return "HopcroftKarp(maximum)"; }

  private:
    /** BFS layering from free inputs; true if an augmenting path exists. */
    bool layer(const RequestMatrix& req);

    /** DFS along the BFS layering from input i, augmenting if possible. */
    bool augment(const RequestMatrix& req, PortId i);

    std::vector<PortId> match_in_;   ///< input -> output or kNoPort
    std::vector<PortId> match_out_;  ///< output -> input or kNoPort
    std::vector<int> dist_;          ///< BFS layer per input
    std::vector<PortId> queue_;      ///< BFS queue (each input once)
};

/** Size of a maximum matching for `req` (convenience wrapper). */
int maximumMatchingSize(const RequestMatrix& req);

}  // namespace an2

#endif  // AN2_MATCHING_HOPCROFT_KARP_H
