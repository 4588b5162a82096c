/**
 * @file
 * Composite scheduling (§5.2): "Any slot not used by statistical
 * matching can be filled with other traffic by parallel iterative
 * matching." The FillInMatcher runs a primary scheduler (typically
 * statistical matching, whose weighted dice intentionally idle ~28% of
 * allocated capacity) and hands the leftover ports to a secondary
 * scheduler (typically PIM) in the same slot, so reserved shares are
 * honored *and* the switch stays work-conserving.
 *
 * The secondary sees a residual request matrix: the slot's requests
 * with the rows of the inputs and the columns of the outputs the
 * primary claimed cleared, built in one masked word pass
 * (RequestMatrix::assignMasked). Each rebuild advances its epoch, so a
 * warm-starting secondary never replays a stale matching.
 */
#ifndef AN2_MATCHING_FILL_IN_H
#define AN2_MATCHING_FILL_IN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "an2/matching/matcher.h"

namespace an2 {

/** Primary scheduler with a secondary filling the ports it leaves idle. */
class FillInMatcher final : public Matcher
{
  public:
    /**
     * @param primary Scheduler with first claim on the slot (owned).
     * @param secondary Scheduler for the leftover ports (owned).
     */
    FillInMatcher(std::unique_ptr<Matcher> primary,
                  std::unique_ptr<Matcher> secondary);

    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override;
    void reset() override;

    /** Pairs contributed by the primary scheduler so far. */
    int64_t primaryPairs() const { return primary_pairs_; }

    /** Pairs contributed by the fill-in scheduler so far. */
    int64_t fillInPairs() const { return fill_in_pairs_; }

    /** The primary scheduler (e.g. to adjust allocations on the fly). */
    Matcher& primary() { return *primary_; }

  private:
    std::unique_ptr<Matcher> primary_;
    std::unique_ptr<Matcher> secondary_;
    int64_t primary_pairs_ = 0;
    int64_t fill_in_pairs_ = 0;

    // Reused across slots: sized on the first call and whenever the
    // dimensions change, so steady state allocates nothing.
    RequestMatrix residual_{1};      ///< requests between idle ports
    Matching fill_{1};               ///< the secondary's matching
    std::vector<uint64_t> busy_in_;  ///< the primary's matched inputs
    std::vector<uint64_t> busy_out_; ///< the primary's saturated outputs
};

}  // namespace an2

#endif  // AN2_MATCHING_FILL_IN_H
