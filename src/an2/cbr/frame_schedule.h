/**
 * @file
 * The pre-computed CBR frame schedule (paper §4): for each slot of the
 * frame, a conflict-free set of input-output pairings. The switch repeats
 * this schedule every frame; CBR cells ride their scheduled slots, and
 * any slot capacity left over (or scheduled but idle) is filled with VBR
 * traffic by parallel iterative matching.
 *
 * Each slot also keeps the set of its scheduled inputs as a word set
 * (an2/matching/wordset.h), written by assign(), clear() and reset().
 * A slot usually pairs only a few ports, so the switch's CBR pass walks
 * that set instead of asking every input for its output.
 */
#ifndef AN2_CBR_FRAME_SCHEDULE_H
#define AN2_CBR_FRAME_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/types.h"
#include "an2/cbr/reservations.h"
#include "an2/matching/wordset.h"

namespace an2 {

/** A frame's worth of crossbar pairings, indexed by slot. */
class FrameSchedule
{
  public:
    /**
     * @param n Switch size.
     * @param frame_slots Slots per frame.
     */
    FrameSchedule(int n, int frame_slots);

    int size() const { return n_; }
    int frameSlots() const { return frame_slots_; }

    /** Output scheduled for input i in slot s, or kNoPort. */
    PortId outputAt(int s, PortId i) const;

    /** Input scheduled for output j in slot s, or kNoPort. */
    PortId inputAt(int s, PortId j) const;

    bool inputFree(int s, PortId i) const { return outputAt(s, i) == kNoPort; }
    bool outputFree(int s, PortId j) const { return inputAt(s, j) == kNoPort; }

    /** Words per scheduled-input set. */
    int inputWords() const { return in_words_; }

    /** Inputs scheduled in slot s, inputWords() words: bit i set iff
        outputAt(s, i) != kNoPort. */
    const uint64_t*
    scheduledInputs(int s) const
    {
        AN2_ASSERT(s >= 0 && s < frame_slots_,
                   "slot " << s << " out of frame");
        return scheduled_.data() +
               static_cast<size_t>(s) * static_cast<size_t>(in_words_);
    }

    /** Schedule the pair (i,j) in slot s; both ports must be free. */
    void assign(int s, PortId i, PortId j);

    /** Remove the pairing (i,j) from slot s; it must be present. */
    void clear(int s, PortId i, PortId j);

    /** Remove every pairing (used when a composite schedule rebuilds). */
    void reset();

    /** Number of slots in which (i,j) is scheduled. */
    int slotsFor(PortId i, PortId j) const;

    /** Total scheduled pairings across the frame. */
    int totalAssignments() const { return total_; }

    /**
     * True when the schedule realizes the reservation matrix exactly:
     * every pair (i,j) appears in exactly reserved(i,j) slots (the
     * guarantee the Slepian-Duguid construction provides).
     */
    bool realizes(const ReservationMatrix& res) const;

  private:
    void checkSlot(int s) const;
    void checkPorts(PortId i, PortId j) const;

    uint64_t*
    scheduledMut(int s)
    {
        return scheduled_.data() +
               static_cast<size_t>(s) * static_cast<size_t>(in_words_);
    }

    int n_;
    int frame_slots_;
    /** per-slot input -> output. */
    std::vector<std::vector<PortId>> in2out_;
    /** per-slot output -> input. */
    std::vector<std::vector<PortId>> out2in_;
    int in_words_;
    /** per-slot scheduled inputs, frame_slots_ x in_words_. */
    std::vector<uint64_t> scheduled_;
    int total_ = 0;
};

}  // namespace an2

#endif  // AN2_CBR_FRAME_SCHEDULE_H
