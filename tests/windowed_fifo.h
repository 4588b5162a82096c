/**
 * @file
 * Windowed FIFO contention resolution — the iterative scheme of
 * Hui & Arthurs (1987) as extended by Karol et al. (paper §2.4).
 *
 * Each input exposes only the first `w` cells of a single FIFO queue. In
 * round one, every input submits the destination of its head cell; each
 * contended output picks one winner. Losers advance to their next queued
 * cell and try again in the next round. This reduces, but does not
 * eliminate, head-of-line blocking: only the first k cells of each queue
 * are ever eligible. PIM's random-access buffers remove the window
 * entirely, which is the comparison the paper draws.
 *
 * With window = rounds = 1 this degenerates to classic FIFO queueing with
 * random contention resolution (the Figure 1/3 baseline).
 *
 * Kept as the test oracle for the switch core's FIFO input form
 * (an2/sim/iq_switch.h), which runs the same rounds in preallocated
 * scratch and draws the same random numbers.
 */
#ifndef AN2_TESTS_WINDOWED_FIFO_H
#define AN2_TESTS_WINDOWED_FIFO_H

#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/matching.h"

namespace an2 {

/** Result of a windowed-FIFO round: matching plus queue positions. */
struct WindowedFifoResult
{
    /** The conflict-free pairing found. */
    Matching matching;

    /**
     * For each input, the queue position (0 = head) of the cell that won,
     * or -1 if the input was not matched. Positions other than 0 imply a
     * cell departing from behind the head (Karol's windowing).
     */
    std::vector<int> positions;
};

/**
 * Run `rounds` rounds of windowed FIFO contention resolution.
 *
 * @param window_dests For each input, the destinations of its first
 *        queued cells, in FIFO order (at most the window size; shorter
 *        vectors mean shorter queues).
 * @param rounds Number of contention rounds (>= 1). An input that loses a
 *        round advances to its next queued cell, if any.
 * @param rng Randomness for choosing among contending inputs.
 */
WindowedFifoResult
windowedFifoMatch(const std::vector<std::vector<PortId>>& window_dests,
                  int n_outputs, int rounds, Rng& rng);

}  // namespace an2

#endif  // AN2_TESTS_WINDOWED_FIFO_H
