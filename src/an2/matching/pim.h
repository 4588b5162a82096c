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
 * one AND and a count of the requesters, one draw, and a pick of the
 * drawn requester — in hardware, a little logic per port over a bit
 * vector. The round is one template body with two instances. Up to 64
 * ports both port sets are one word, and that instance runs every phase
 * without a loop over words; it covers every switch of the paper's
 * experiments and of the LAN. The other reads the word counts at run
 * time and serves larger switches.
 *
 * The round and its bit helpers live in one kernel source
 * (pim_kernel.inc) that pim.cc compiles twice (PimKernel): a portable
 * instance (SWAR count, broadword select) and, on x86-64 with GCC, an
 * instance built for popcnt and BMI2 (the popcnt instruction, pdep).
 * A PimMatcher picks one when it is built: the popcnt/BMI2 instance on
 * a CPU that has both and a fast pdep, the portable one elsewhere
 * (other ISAs, other compilers, and AMD families 15h and 17h, whose
 * pdep is microcoded). Both take the same draws and return the same
 * matchings. The per-port scalar form of the algorithm lives in the
 * tests (ScalarPimMatcher), which hold both kernels to it draw for
 * draw.
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

/**
 * A PimMatcher's state between and within slots: the accept pointers
 * and the word-parallel scratch, reused across slots (no steady-state
 * heap traffic). It is the operand of a PimKernel. Column masks run over
 * inputs (col_words words); grant rows run over outputs (row_words
 * words).
 */
struct PimState
{
    AcceptPolicy accept = AcceptPolicy::Random;
    Rng* rng = nullptr;
    std::vector<int> accept_ptr;  ///< per-input round-robin pointer
    int accept_outputs = 0;       ///< outputs the pointers range over

    int n_inputs = 0;  ///< matrix dimensions the scratch is sized for
    int n_outputs = 0;
    int col_words = 0;
    int row_words = 0;
    std::vector<uint64_t> free_in;     ///< unmatched inputs
    std::vector<uint64_t> free_out;    ///< unsaturated outputs
    std::vector<uint64_t> granted;     ///< inputs granted this round
    std::vector<uint64_t> requesters;  ///< one output's free requesters
    std::vector<uint64_t> grant_rows;  ///< outputs granting each input
    std::vector<PortId> grant_order;   ///< one output's requesters (k > 1)
};

/**
 * One compiled instance of PIM's round (pim_kernel.inc). The instances
 * differ only in the instructions that count and select bits.
 */
struct PimKernel
{
    /** "portable" or "popcnt+bmi2". */
    const char* name;

    /** The instance's count of a word's set bits. */
    int (*popcount64)(uint64_t x);

    /** The instance's index of the k-th (0-based) set bit of a word
        with more than k bits set. */
    int (*selectBit64)(uint64_t mask, int k);

    /** Run rounds into `m` (already reset) until one adds nothing or
        `max_iterations` have run (0 = no limit); `stats`, when given,
        records each. `state` must be sized for `req`. */
    void (*run)(PimState& state, const RequestMatrix& req, Matching& m,
                int max_iterations, PimRunStats* stats);
};

/** The portable kernel: SWAR count and broadword select; runs on every
    target. */
const PimKernel& pimPortableKernel();

/** The kernel built for popcnt and BMI2, or nullptr when this CPU lacks
    either or the build has no such kernel (not x86-64 GCC). */
const PimKernel* pimHardwareKernel();

/** Parallel iterative matching scheduler. */
class PimMatcher final : public Matcher
{
  public:
    /**
     * @param config Algorithm parameters.
     * @param rng Optional engine override (e.g. WeakLcg for the §3.3
     *            PRNG-sensitivity ablation); defaults to xoshiro256**
     *            seeded from config.seed.
     *
     * Runs the popcnt/BMI2 kernel when this CPU has both and a fast
     * pdep, else the portable kernel.
     */
    explicit PimMatcher(const PimConfig& config = PimConfig{},
                        std::unique_ptr<Rng> rng = nullptr);

    /** Run `kernel` whatever the CPU (the tests hold each kernel to the
        scalar oracle). */
    PimMatcher(const PimConfig& config, const PimKernel& kernel,
               std::unique_ptr<Rng> rng = nullptr);

    /** The kernel this matcher runs. */
    const PimKernel& kernel() const { return *kernel_; }

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
    /** Validate/initialize the accept pointers and size the scratch for
        `req` (resized only when its dimensions change). */
    void prepare(const RequestMatrix& req);

    PimConfig config_;
    std::unique_ptr<Rng> rng_;
    const PimKernel* kernel_;
    PimState state_;
};

}  // namespace an2

#endif  // AN2_MATCHING_PIM_H
