/**
 * @file
 * Cross-slot warm-start state shared by the incremental matcher paths
 * (WarmStart::On in iSLIP and serial greedy).
 *
 * The state remembers the previous slot's matching as a dense in->out
 * array plus the request matrix's epoch at the moment it was taken. Two
 * reuse tiers:
 *
 *  - unchanged(): the same matrix object with an unchanged epoch means
 *    no visible edge changed since the last matching, so the previous
 *    matching can be replayed wholesale — it is still legal and still
 *    maximal. O(1) to detect.
 *  - seed(): otherwise, each remembered edge is validated against the
 *    current matrix with one has() bit test (an edge whose port died
 *    since last slot has lost its wire and is dropped) and
 *    the survivors are pre-added to the matching, clearing their bits
 *    from the caller's free-port masks. The caller then repairs only the
 *    remaining free ports.
 *
 * The related work this mirrors: SERENADE derives slot t's matching by
 * merging slot t-1's with a fresh candidate; QPS-r shows cheap reuse
 * plus sparse sampling matches far more expensive maximal matching.
 */
#ifndef AN2_MATCHING_WARM_START_H
#define AN2_MATCHING_WARM_START_H

#include <cstdint>
#include <vector>

#include "an2/base/types.h"
#include "an2/matching/matching.h"
#include "an2/matching/request_matrix.h"

namespace an2 {

/** Previous-slot matching snapshot + change acknowledgment. */
class WarmStartState
{
  public:
    /** True when a matching has been remembered and its dimensions fit
        `req` (a re-dimensioned matrix silently invalidates the state). */
    bool validFor(const RequestMatrix& req) const
    {
        return valid_ && static_cast<int>(prev_.size()) == req.numInputs() &&
               n_outputs_ == req.numOutputs();
    }

    /**
     * True when `req` is the same matrix object, unchanged (by epoch)
     * since the last remember(): the previous matching may be replayed
     * wholesale via replay().
     */
    bool unchanged(const RequestMatrix& req) const
    {
        return validFor(req) && last_req_ == &req &&
               req.epoch() == last_epoch_;
    }

    /** Replay the remembered matching into `out` (already reset).
        Requires unchanged(); returns the number of edges replayed. */
    int replay(Matching& out) const;

    /**
     * Validate the remembered edges against `req`, add the survivors to
     * `out` (already reset), and clear each survivor's bits from the
     * caller's free-input/free-output masks. Returns the number of edges
     * reused; a state that is not validFor(req) reuses nothing.
     */
    int seed(const RequestMatrix& req, Matching& out, uint64_t* free_in,
             uint64_t* free_out) const;

    /** Mask-free seed, used by greedy's core: same validation and the
        same reused edge set; callers derive free ports from `out` itself
        (outputOf / isInputMatched). */
    int seed(const RequestMatrix& req, Matching& out) const;

    /** Snapshot `out` as the previous matching and capture the
        matrix's epoch. */
    void remember(const RequestMatrix& req, const Matching& out);

    /** Drop the remembered matching (reset(), fault-plan restarts). */
    void invalidate() { valid_ = false; }

  private:
    std::vector<PortId> prev_;  ///< previous matching, in -> out
    const RequestMatrix* last_req_ = nullptr;
    uint64_t last_epoch_ = 0;
    int n_outputs_ = 0;
    bool valid_ = false;
};

}  // namespace an2

#endif  // AN2_MATCHING_WARM_START_H
