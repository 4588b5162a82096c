/**
 * @file
 * Subdivided frames — the §4 future-work scheme, implemented: "We are
 * considering schemes in which a large frame is subdivided into smaller
 * frames. This would allow each application to trade off a guarantee of
 * lower latency against a smaller granularity of allocation."
 *
 * The frame of F slots is split into m equal subframes. Two reservation
 * classes coexist:
 *
 *  - *Frame class* (the original §4 service): k cells anywhere in the
 *    frame; finest granularity (1 cell/frame = 1/F of the link), latency
 *    bounded by ~2 frames per hop.
 *  - *Subframe class* (low latency): q cells in *every* subframe, i.e.
 *    q*m cells/frame; the flow is served within every subframe, so its
 *    per-hop delay bound shrinks by a factor m — but bandwidth comes in
 *    granules of m cells/frame.
 *
 * Internally each subframe is its own Slepian-Duguid problem of F/m
 * slots; the public schedule() is the concatenation, drop-in compatible
 * with InputQueuedSwitch.
 */
#ifndef AN2_CBR_SUBFRAMES_H
#define AN2_CBR_SUBFRAMES_H

#include <memory>
#include <vector>

#include "an2/cbr/slepian_duguid.h"

namespace an2 {

/** Frame scheduler with per-subframe low-latency reservations. */
class SubframeScheduler
{
  public:
    /**
     * @param n Switch size.
     * @param frame_slots Slots per full frame.
     * @param num_subframes Equal subdivisions (must divide frame_slots).
     * @param placement Slot placement within each subframe.
     */
    SubframeScheduler(int n, int frame_slots, int num_subframes,
                      SlotPlacement placement = SlotPlacement::Spread);

    int size() const { return n_; }
    int frameSlots() const { return frame_slots_; }
    int subframeSlots() const { return frame_slots_ / num_subframes_; }

    /**
     * Reserve k cells per full frame (frame class): placed wherever
     * capacity exists across the subframes.
     * @return false (no state change) when capacity is insufficient.
     */
    bool addFrameReservation(PortId i, PortId j, int k);

    /**
     * Reserve q cells in *every* subframe (subframe class): q*m cells
     * per frame with an m-times tighter service guarantee.
     * @return false (no state change) when any subframe lacks capacity.
     */
    bool addSubframeReservation(PortId i, PortId j, int q);

    /** Total cells/frame currently reserved for (i,j), both classes. */
    int reservedPerFrame(PortId i, PortId j) const;

    /**
     * The concatenated full-frame schedule (valid until the next
     * reservation change; pointer-stable for the switch models).
     */
    const FrameSchedule& schedule() const { return combined_; }

    /**
     * Worst gap between consecutive scheduled slots of (i,j) across the
     * full frame (cyclically); the delay-jitter metric.
     */
    int maxGap(PortId i, PortId j) const;

  private:
    /** Rebuild the concatenated schedule after a reservation change. */
    void rebuildCombined();

    int n_;
    int frame_slots_;
    int num_subframes_;
    std::vector<std::unique_ptr<SlepianDuguidScheduler>> subs_;
    FrameSchedule combined_;
};

}  // namespace an2

#endif  // AN2_CBR_SUBFRAMES_H
