/**
 * @file
 * Statistical matching (paper §5, Appendix C): PIM with weighted dice.
 *
 * Bandwidth per link is divided into X discrete units; X[i][j] units are
 * allocated to traffic from input i to output j. Each slot:
 *
 *  1. Every output grants to input i with probability X[i][j]/X (possibly
 *     granting to an imaginary input, i.e. nobody, when under-allocated).
 *  2. Every granted input reinterprets the grant as a binomially
 *     distributed number of "virtual grants" — arranged so the input sees
 *     exactly the virtual-grant distribution it would see if each of the
 *     X[i][j] units granted independently with probability 1/X — and then
 *     accepts one virtual grant uniformly at random. Unreserved input
 *     bandwidth behaves as virtual grants from an imaginary output.
 *
 * One round delivers (1 - 1/e) ~ 63% of each allocation; an independent
 * second round (conflicting matches discarded) raises this to
 * (1 - 1/e)(1 + 1/e^2) ~ 72%. Unlike the Slepian–Duguid frame schedule,
 * changing a rate only involves the two ports of the flow, which is what
 * makes the scheme suitable for rapidly changing allocations and fairness.
 */
#ifndef AN2_MATCHING_STATISTICAL_H
#define AN2_MATCHING_STATISTICAL_H

#include <vector>

#include "an2/base/matrix.h"
#include "an2/base/rng.h"
#include "an2/matching/matcher.h"

namespace an2 {

/** Theoretical delivered fraction of allocation after one round. */
double statisticalOneRoundFraction(int units);

/** Theoretical guaranteed fraction after two rounds (the 72% figure). */
double statisticalTwoRoundFraction(int units);

/** Configuration for a StatisticalMatcher. */
struct StatisticalConfig
{
    /** Number of discrete bandwidth units X per link. */
    int units = 1000;

    /** Grant/accept rounds (1 or 2; more adds insignificant throughput). */
    int rounds = 2;

    /** PRNG seed. */
    uint64_t seed = 1;
};

/** The statistical matching scheduler. */
class StatisticalMatcher final : public Matcher
{
  public:
    /**
     * @param allocation n x n matrix of allocated units X[i][j]; every row
     *        and column must sum to at most config.units.
     * @param config Algorithm parameters.
     */
    StatisticalMatcher(Matrix<int> allocation,
                       const StatisticalConfig& config = StatisticalConfig{});

    /**
     * Run statistical matching, then drop any matched pair that has no
     * queued cell in `req` (the freed slots are available to a PIM
     * fill-in pass, as §5.2 prescribes).
     */
    void matchInto(const RequestMatrix& req, Matching& out) override;

    std::string name() const override;

    /**
     * Run pure allocation-driven matching (as if every allocated pair
     * always had a queued cell). This is the Appendix C experiment.
     */
    Matching matchAllocated();

    /**
     * Change the allocation for one pair — the cheap dynamic-rate update
     * §5 advertises (only the two ports involved are affected): it
     * recomputes the pair's conditional CDF, input i's imaginary-output
     * CDF and output j's cumulative allocations, O(n + X) work.
     * Row/column sums must remain within the unit budget.
     */
    void setAllocation(PortId i, PortId j, int alloc_units);

    /** Current allocation for (i,j). */
    int allocation(PortId i, PortId j) const { return alloc_.at(i, j); }

    /** The unit budget X. */
    int units() const { return config_.units; }

  private:
    /** Validate the allocation and compute every cached table. */
    void buildTables();

    /** Recompute column j's cumulative allocations. */
    void rebuildColumn(PortId j);

    /** Index of pair (i,j) in cond_cdf_. */
    size_t pairIndex(PortId i, PortId j) const
    {
        return static_cast<size_t>(i) * static_cast<size_t>(alloc_.rows()) +
               static_cast<size_t>(j);
    }

    /** Reset `out` and run every round into it, ignoring requests. */
    void scheduleInto(Matching& out);

    /**
     * Run one grant/accept round and add each accepted grant to `out`,
     * unless an earlier round already matched its input or its output
     * (rounds are independent; conflicting matches are discarded).
     */
    void runRound(Matching& out);

    /** Sample the virtual-grant count for a granted pair (i,j). */
    int sampleVirtualGrants(PortId i, PortId j);

    /** Sample virtual grants from input i's imaginary output. */
    int sampleImaginaryGrants(PortId i);

    Matrix<int> alloc_;
    StatisticalConfig config_;
    Xoshiro256 rng_;

    /**
     * Conditional CDF of the virtual-grant count given a grant, per pair
     * with a positive allocation: cond_cdf_[i*n+j][m] = Pr{count <= m}.
     */
    std::vector<std::vector<double>> cond_cdf_;

    /** Unconditional binomial CDF for each input's imaginary output. */
    std::vector<std::vector<double>> imag_cdf_;

    /** Per-output cumulative allocation over inputs, for grant choice. */
    std::vector<std::vector<int>> col_cum_;

    // Per-round scratch, reserved at construction (no steady-state heap
    // traffic): the outputs granting each input, in ascending order, and
    // one input's virtual-grant weights (its grants, then the imaginary
    // output).
    std::vector<std::vector<PortId>> grants_to_;
    std::vector<int> weights_;
};

}  // namespace an2

#endif  // AN2_MATCHING_STATISTICAL_H
