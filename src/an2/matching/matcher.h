/**
 * @file
 * The scheduling-strategy interface: switches are parameterized by a
 * Matcher so that every experiment can swap algorithms (PIM, iSLIP,
 * greedy, maximum matching, ...) without touching the simulator.
 */
#ifndef AN2_MATCHING_MATCHER_H
#define AN2_MATCHING_MATCHER_H

#include <string>

#include "an2/matching/matching.h"
#include "an2/matching/request_matrix.h"

namespace an2 {

/**
 * Which implementation core a matcher runs on. The word-parallel cores
 * cover every size and configuration and produce bit-identical matchings
 * to the scalar reference cores — they consume PRNG draws and rotate
 * pointers in exactly the same order. Reference exists only as the
 * oracle the differential tests compare against.
 */
enum class MatcherBackend {
    /** The word-parallel core. */
    Auto,
    /** The scalar reference core. */
    Reference,
};

/**
 * Cross-slot warm starting (temporal locality). At steady load the
 * request matrix changes by O(N) edges per slot; with WarmStart::On a
 * matcher seeds each slot's matching with the previous slot's surviving
 * edges (pairs still requested and not hidden by a dead port) and runs a
 * repair pass over the remaining free ports, touching O(changed) state
 * instead of recomputing from empty. The result is always legal and
 * *maximal*, but it is a different scheduling policy from the cold
 * algorithm (reused edges skip re-arbitration), so the knob defaults to
 * Off and every existing sweep/golden stays byte-identical.
 *
 * Supported by IslipMatcher and SerialGreedyMatcher. PimMatcher
 * deliberately has no warm mode: its word-parallel core's contract is
 * exact RNG-draw replay of the reference core, and a warm seed would
 * change which draws are consumed.
 */
enum class WarmStart {
    Off,
    On,
};

/** A switch-scheduling algorithm: request matrix in, legal matching out. */
class Matcher
{
  public:
    virtual ~Matcher() = default;

    /**
     * Compute a matching for one time slot. Must return a matching that is
     * legal for `req`. Implementations may keep internal state across
     * calls (round-robin pointers, PRNG state).
     */
    virtual Matching match(const RequestMatrix& req) = 0;

    /**
     * Compute the matching for one slot into `out` (re-dimensioned as
     * needed). The hot-path entry point: implementations that override it
     * perform no heap allocation in steady state; the default simply
     * wraps match().
     */
    virtual void matchInto(const RequestMatrix& req, Matching& out)
    {
        out = match(req);
    }

    /** Human-readable algorithm name for reports. */
    virtual std::string name() const = 0;

    /** Reset internal state (pointers etc.); PRNG state is preserved. */
    virtual void reset() {}
};

}  // namespace an2

#endif  // AN2_MATCHING_MATCHER_H
