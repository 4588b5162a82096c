/**
 * @file
 * Parallel Iterative Matching (paper §3) — the primary contribution.
 *
 * Each iteration runs three phases over all unmatched ports in parallel:
 *
 *  1. Request: every unmatched input requests every output for which it
 *     has a buffered cell.
 *  2. Grant: every unmatched output that received requests grants one,
 *     chosen uniformly at random (the randomness is what yields the
 *     O(log N) expected completion bound of Appendix A).
 *  3. Accept: every input that received grants accepts one.
 *
 * Matches made in earlier iterations are retained; iterations "fill in the
 * gaps". The hardware keep-grant optimization of §3.3 (an input that
 * accepted keeps requesting only that output, and the output keeps
 * granting it) is behaviourally identical to retaining matches, which is
 * how this implementation models it.
 *
 * The output-capacity generalization of §3.1 (replicated banyan: up to k
 * grants per output) is supported via PimConfig::output_capacity.
 *
 * Each phase runs over 64-bit words of the request matrix's row and
 * column bitmasks, and a grant or an accept costs straight-line work:
 * one AND and inline count of the requesters (wordset::popcount64), one
 * draw, and a branch-free pick of the drawn requester
 * (wordset::selectBit64). The round is one template body with two
 * instances. Up to 64 ports both port sets are one word, and that
 * instance runs every phase without a loop over words; it covers every
 * switch of the paper's experiments and of the LAN. The other reads
 * the word counts at run time and serves larger switches. The
 * per-port scalar form of the algorithm lives in the tests
 * (ScalarPimMatcher), which hold both instances to it draw for draw.
 */
#ifndef AN2_MATCHING_PIM_H
#define AN2_MATCHING_PIM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/matcher.h"

namespace an2 {

/** How an input chooses among the grants it received (step 3). */
enum class AcceptPolicy {
    /** Uniformly at random among granting outputs. */
    Random,
    /**
     * Rotating pointer per input: accept the first granting output at or
     * after the pointer, then advance it. The paper recommends
     * "round-robin or other fair fashion" to guarantee no starvation.
     */
    RoundRobin,
};

/** Configuration for a PimMatcher. */
struct PimConfig
{
    /**
     * Number of request/grant/accept iterations per slot; 0 means iterate
     * to completion (a maximal match). The AN2 prototype uses 4.
     */
    int iterations = 4;

    /** Input-side accept policy. */
    AcceptPolicy accept = AcceptPolicy::Random;

    /** Max cells deliverable to one output per slot (replicated fabric). */
    int output_capacity = 1;

    /** PRNG seed for the default xoshiro256** engine. */
    uint64_t seed = 1;
};

/** Per-call diagnostics from PimMatcher::matchDetailed. */
struct PimRunStats
{
    /** Cumulative matched pairs after each executed iteration. */
    std::vector<int> matches_after_iteration;

    /** Iterations actually executed (early exit once maximal). */
    int iterations_run = 0;

    /** True when the returned matching is maximal for the request set. */
    bool reached_maximal = false;
};

/** Parallel iterative matching scheduler. */
class PimMatcher final : public Matcher
{
  public:
    /**
     * @param config Algorithm parameters.
     * @param rng Optional engine override (e.g. WeakLcg for the §3.3
     *            PRNG-sensitivity ablation); defaults to xoshiro256**
     *            seeded from config.seed.
     */
    explicit PimMatcher(const PimConfig& config = PimConfig{},
                        std::unique_ptr<Rng> rng = nullptr);

    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override;
    void reset() override;

    /**
     * Run PIM and also report per-iteration progress; used by the Table 1
     * and Appendix A experiments.
     *
     * @param req The request pattern.
     * @param stats Out-parameter filled with per-iteration match counts.
     * @param max_iterations Overrides config (0 = to completion).
     */
    Matching matchDetailed(const RequestMatrix& req, PimRunStats& stats,
                           int max_iterations);

  private:
    /** Validate/initialize the per-input accept pointers for `req`. */
    void ensureAcceptPtrs(const RequestMatrix& req);

    /** Run rounds into `m` until one adds nothing or `max_iterations`
        have run (0 = no limit); `stats`, when given, records each. */
    void runIterations(const RequestMatrix& req, Matching& m,
                       int max_iterations, PimRunStats* stats);

    /** Size and initialize the word-parallel scratch for `req`. */
    void prepareWordState(const RequestMatrix& req);

    /** One request/grant/accept round over the port bitmasks; returns
        matches added. `it` is the iteration index reported to the obs
        probe layer. kWords is the words per port set when both sets
        fit in that many (1: up to 64 ports), or 0 to read the word
        counts at run time. */
    template <int kWords>
    int runWordIteration(const RequestMatrix& req, Matching& m, int it);

    PimConfig config_;
    std::unique_ptr<Rng> rng_;
    std::vector<int> accept_ptr_;  ///< per-input round-robin pointer
    int accept_outputs_ = 0;       ///< outputs the pointers range over

    // Word-parallel scratch, reused across slots (no steady-state heap
    // traffic). Column masks run over inputs (col_words_ words); grant
    // rows run over outputs (row_words_ words).
    int col_words_ = 0;
    int row_words_ = 0;
    std::vector<uint64_t> free_in_;     ///< unmatched inputs
    std::vector<uint64_t> free_out_;    ///< unsaturated outputs
    std::vector<uint64_t> granted_;     ///< inputs granted this round
    std::vector<uint64_t> requesters_;  ///< per-output scratch
    std::vector<uint64_t> grant_rows_;  ///< outputs granting each input
    std::vector<PortId> grant_order_;   ///< one output's requesters (k > 1)
};

}  // namespace an2

#endif  // AN2_MATCHING_PIM_H
