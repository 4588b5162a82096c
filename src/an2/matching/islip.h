/**
 * @file
 * iSLIP — the rotating-pointer descendant of PIM (McKeown, 1995/99),
 * included as an ablation baseline: it replaces PIM's random grant/accept
 * choices with round-robin pointers that "desynchronize" under load,
 * trading PIM's per-slot randomness for deterministic hardware.
 *
 * Not part of the 1992 paper itself; an2sim ships it because the paper's
 * §3.3 discussion of implementing random selection in hardware is exactly
 * the problem iSLIP was later designed to avoid, making it the natural
 * design-alternative ablation.
 *
 * Each round runs over 64-bit words of the request matrix's bitmasks;
 * the per-port scalar form (ScalarIslipMatcher, in the tests) is the
 * oracle it must match decision for decision, warm start included.
 */
#ifndef AN2_MATCHING_ISLIP_H
#define AN2_MATCHING_ISLIP_H

#include <cstdint>
#include <vector>

#include "an2/matching/matcher.h"
#include "an2/matching/warm_start.h"

namespace an2 {

/**
 * Kept only because the benchmark (an2bench/switch_workloads.cc) names
 * IslipMatcher(4, MatcherBackend::Auto, WarmStart::On). ROADMAP's
 * "Benchmark refresh" switches it to IslipMatcher(4, WarmStart::On), so
 * that a follow-up can delete this enum and the overload that takes it.
 */
enum class MatcherBackend {
    /** The word-parallel core, the only one there is. */
    Auto,
};

/** The iSLIP scheduler with a configurable iteration count. */
class IslipMatcher final : public Matcher
{
  public:
    /**
     * @param iterations Grant/accept rounds per slot (>= 1).
     * @param warm WarmStart::On seeds each slot from the previous slot's
     *             surviving edges and repairs only the free ports (a
     *             different policy from cold iSLIP; see matcher.h).
     */
    explicit IslipMatcher(int iterations = 4,
                          WarmStart warm = WarmStart::Off);

    /** The same matcher; the benchmark names this form (see
        MatcherBackend). */
    IslipMatcher(int iterations, MatcherBackend, WarmStart warm)
        : IslipMatcher(iterations, warm)
    {
    }

    Matching match(const RequestMatrix& req) override;
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override;
    void reset() override;

  private:
    /** One grant/accept round over the port bitmasks; returns matches
        added. */
    int runWordIteration(const RequestMatrix& req, Matching& m, int it);

    /** The WarmStart::On slot: replay, or seed + one repair pass. */
    void matchWarm(const RequestMatrix& req, Matching& out);

    int iterations_;
    WarmStart warm_;
    WarmStartState warm_state_;
    std::vector<int> grant_ptr_;   ///< per-output rotating grant pointer
    std::vector<int> accept_ptr_;  ///< per-input rotating accept pointer

    // Word-parallel scratch, reused across slots.
    int col_words_ = 0;
    int row_words_ = 0;
    std::vector<uint64_t> free_in_;     ///< unmatched inputs
    std::vector<uint64_t> free_out_;    ///< unmatched outputs
    std::vector<uint64_t> granted_;     ///< inputs granted this round
    std::vector<uint64_t> requesters_;  ///< per-output scratch
    std::vector<uint64_t> grant_rows_;  ///< outputs granting each input
};

}  // namespace an2

#endif  // AN2_MATCHING_ISLIP_H
