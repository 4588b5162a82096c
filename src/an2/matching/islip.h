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
 */
#ifndef AN2_MATCHING_ISLIP_H
#define AN2_MATCHING_ISLIP_H

#include <cstdint>
#include <vector>

#include "an2/matching/matcher.h"
#include "an2/matching/warm_start.h"

namespace an2 {

/** The iSLIP scheduler with a configurable iteration count. */
class IslipMatcher final : public Matcher
{
  public:
    /**
     * @param iterations Grant/accept rounds per slot (>= 1).
     * @param backend Implementation core; Auto runs the word-parallel
     *                core, Reference the scalar one (identical matchings —
     *                the algorithm is deterministic given the pointers).
     * @param warm WarmStart::On seeds each slot from the previous slot's
     *             surviving edges and repairs only the free ports (a
     *             different policy from cold iSLIP; see matcher.h). Both
     *             backends make identical warm decisions.
     */
    explicit IslipMatcher(int iterations = 4,
                          MatcherBackend backend = MatcherBackend::Auto,
                          WarmStart warm = WarmStart::Off);

    /** The word-parallel core with the given warm-start policy. */
    IslipMatcher(int iterations, WarmStart warm)
        : IslipMatcher(iterations, MatcherBackend::Auto, warm)
    {
    }

    Matching match(const RequestMatrix& req) override;
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override;
    void reset() override;

  private:
    /** One scalar grant/accept round; returns matches added. */
    int runIteration(const RequestMatrix& req, Matching& m, int it);

    /** One word-parallel round; identical decisions to runIteration. */
    int runIterationFast(const RequestMatrix& req, Matching& m, int it);

    /** The WarmStart::On slot: replay, or seed + one repair pass. */
    void matchWarm(const RequestMatrix& req, Matching& out, bool fast);

    int iterations_;
    MatcherBackend backend_;
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
