/**
 * @file
 * Sequential greedy maximal matching: the "obvious" centralized algorithm
 * PIM competes against. It visits inputs in (optionally random) order and
 * pairs each with a free requested output. The result is always maximal,
 * but the algorithm is inherently serial — O(N^2) sequential work per
 * slot — which is why the paper dismisses centralized schedulers as a
 * bottleneck (§2.2). It serves as a match-quality reference.
 *
 * The pass intersects each visited input's request row with a bitmask
 * of the free outputs; the per-port scalar form (ScalarGreedyMatcher, in
 * the tests) is the oracle it must match draw for draw.
 */
#ifndef AN2_MATCHING_SERIAL_GREEDY_H
#define AN2_MATCHING_SERIAL_GREEDY_H

#include <cstdint>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/matcher.h"
#include "an2/matching/warm_start.h"

namespace an2 {

/** Centralized greedy maximal matcher. */
class SerialGreedyMatcher final : public Matcher
{
  public:
    /**
     * @param randomize Visit inputs and outputs in random order (fairer);
     *                  when false, lowest index wins every tie.
     * @param seed PRNG seed used when randomizing.
     * @param warm WarmStart::On seeds each slot from the previous slot's
     *             surviving edges; seeded inputs skip their visit (and
     *             their PRNG draw). See matcher.h.
     */
    explicit SerialGreedyMatcher(bool randomize = true, uint64_t seed = 1,
                                 WarmStart warm = WarmStart::Off);

    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override;
    void reset() override;

  private:
    bool randomize_;
    WarmStart warm_;
    WarmStartState warm_state_;
    Xoshiro256 rng_;

    // Reused scratch (no steady-state heap traffic).
    std::vector<PortId> input_order_;
    std::vector<uint64_t> free_out_;    ///< unsaturated outputs
    std::vector<uint64_t> candidates_;  ///< per-input scratch
};

}  // namespace an2

#endif  // AN2_MATCHING_SERIAL_GREEDY_H
