/**
 * @file
 * Multicast parallel iterative matching — the capability §2 mentions
 * ("Our network also supports multicast flows, but we will not discuss
 * that here"), reconstructed as the natural PIM generalization.
 *
 * A multicast cell at an input must reach a *set* of outputs. The
 * crossbar can replicate for free: one transmission from an input can
 * drive any subset of outputs simultaneously, but each output still
 * listens to at most one input per slot. The request/grant/accept rounds
 * generalize directly:
 *
 *  1. Each input requests every output in its cell's remaining fanout.
 *  2. Each unclaimed output grants one requesting input at random.
 *  3. An input accepts *all* grants it received — they are served by the
 *     same transmission.
 *
 * Two service disciplines from the multicast switching literature:
 *  - *Fanout splitting*: the cell departs toward whatever subset it won;
 *    the residue stays queued for later slots (higher throughput).
 *  - *No splitting* (one-shot): the cell goes only if it wins its entire
 *    fanout in one slot; otherwise it releases its grants and waits.
 */
#ifndef AN2_MATCHING_MULTICAST_H
#define AN2_MATCHING_MULTICAST_H

#include <vector>

#include "an2/base/rng.h"
#include "an2/base/types.h"

namespace an2 {

/** One multicast head cell: an input and its remaining fanout set. */
struct MulticastRequest
{
    PortId input = kNoPort;
    std::vector<PortId> outputs;
};

/** Result of one multicast matching slot. */
struct MulticastMatch
{
    /**
     * For each request (same order as the input vector), the outputs the
     * transmission will reach this slot (empty = input idle).
     */
    std::vector<std::vector<PortId>> won;

    /** Total (input, output) deliveries this slot. */
    int deliveries = 0;

    /** Requests fully served (won their entire remaining fanout). */
    int completed = 0;
};

/** Configuration for the multicast scheduler. */
struct MulticastPimConfig
{
    /** Request/grant/accept iterations per slot. */
    int iterations = 4;

    /** Serve partial fanouts (true) or all-or-nothing (false). */
    bool fanout_splitting = true;

    /** PRNG seed. */
    uint64_t seed = 1;
};

/** Multicast PIM scheduler. */
class MulticastPim
{
  public:
    /**
     * @param n Switch size.
     * @param config Algorithm parameters.
     */
    MulticastPim(int n, const MulticastPimConfig& config = {});

    /**
     * Schedule one slot. Requests must have distinct inputs; fanout sets
     * must be non-empty with valid, distinct outputs.
     */
    MulticastMatch match(const std::vector<MulticastRequest>& requests);

    int size() const { return n_; }

  private:
    int n_;
    MulticastPimConfig config_;
    Xoshiro256 rng_;
};

}  // namespace an2

#endif  // AN2_MATCHING_MULTICAST_H
