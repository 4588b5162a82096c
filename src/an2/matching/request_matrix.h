/**
 * @file
 * The scheduling problem input: which input-output pairs have queued cells.
 *
 * Switch scheduling is bipartite matching (paper §3.4): inputs and outputs
 * are the two node sets, and an edge (i,j) exists when input i has at least
 * one cell queued for output j. The RequestMatrix records the number of
 * queued cells per pair; schedulers only care whether it is non-zero, but
 * counts are kept for diagnostics and weighted policies.
 *
 * Alongside the dense counts the matrix maintains, incrementally on every
 * mutation, the bit-parallel view the word-parallel matchers consume: a
 * row mask per input (bit j set when input i requests output j), a column
 * mask per output (bit i set when input i requests output j), the set of
 * requested outputs (bit j set when column j is non-empty), and the edge
 * count. This mirrors the AN2 hardware, where the request state is
 * literally one wire per port pair (§3.3) and an output's arbiter acts
 * only when one of its wires is high: the matchers grant over the
 * requested outputs, so a slot pays for outputs with work, not for every
 * port. It also lets a switch patch the matrix as cells arrive and depart
 * instead of rebuilding O(N^2) state every slot.
 *
 * Port liveness (fault injection): setInputLive/setOutputLive mark ports
 * dead, which *hides* their requests — has() returns false, the row and
 * column masks exclude them, and numEdges() counts only visible edges —
 * without discarding the underlying counts. Matchers consume only
 * has()/rowMask()/colMask()/requestedOutputs(), so a dead port can never
 * be granted by any matcher. Reviving a port re-exposes its surviving
 * queued requests. Liveness survives clear() and copy assignment.
 *
 * Change tracking (temporal locality): every mutation that changes the
 * *visible* edge set — a count crossing zero, clearRow/clearColumn,
 * clear(), and liveness flips hiding or re-exposing edges — bumps an
 * epoch counter, so a warm-starting matcher detects a completely
 * unchanged matrix in O(1). Count changes that do not cross zero (2 -> 1
 * queued cells) leave the edge set intact and the epoch alone.
 */
#ifndef AN2_MATCHING_REQUEST_MATRIX_H
#define AN2_MATCHING_REQUEST_MATRIX_H

#include <cstdint>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/matrix.h"
#include "an2/base/rng.h"
#include "an2/base/types.h"
#include "an2/matching/wordset.h"

namespace an2 {

/** Occupancy of the virtual output queues: requests for the next slot. */
class RequestMatrix
{
  public:
    /** Empty n_inputs x n_outputs request matrix. */
    RequestMatrix(int n_inputs, int n_outputs);

    /** Square n x n request matrix. */
    explicit RequestMatrix(int n) : RequestMatrix(n, n) {}

    /**
     * Copying bumps the destination's epoch past both operands: an
     * overwrite may change any visible edge without an individually
     * recorded transition, so a warm-started matcher must never
     * wholesale-reuse a matching across a copy (the per-edge seeding path
     * remains valid). Moves are exact.
     */
    RequestMatrix(const RequestMatrix& other);
    RequestMatrix& operator=(const RequestMatrix& other);
    RequestMatrix(RequestMatrix&&) = default;
    RequestMatrix& operator=(RequestMatrix&&) = default;

    int numInputs() const { return counts_.rows(); }
    int numOutputs() const { return counts_.cols(); }

    /** True when input i has at least one cell queued for output j and
        both ports are live. One bit test against the incrementally
        maintained row mask (the masks hold exactly the visible edges),
        so per-edge legality checks never touch the dense count matrix. */
    bool has(PortId i, PortId j) const
    {
        AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
                   "request (" << i << "," << j << ") out of range");
        return wordset::testBit(rowMask(i), j);
    }

    /** Number of cells queued from i to j. */
    int count(PortId i, PortId j) const { return counts_.at(i, j); }

    /** Set the queued-cell count for (i,j). */
    void set(PortId i, PortId j, int count);

    /** Add one queued cell for (i,j). */
    void increment(PortId i, PortId j) { set(i, j, count(i, j) + 1); }

    /** Remove one queued cell for (i,j); count must be positive. */
    void decrement(PortId i, PortId j);

    /** Number of (i,j) pairs with at least one visible request (O(1));
        requests hidden by dead ports are excluded. */
    int numEdges() const { return edges_; }

    /**
     * Mark input i live or dead. Killing a port hides its requests from
     * has()/masks/numEdges() in O(row edges); reviving re-exposes the
     * surviving counts in O(numOutputs). Idempotent.
     */
    void setInputLive(PortId i, bool live);

    /** Mark output j live or dead (see setInputLive). */
    void setOutputLive(PortId j, bool live);

    bool inputLive(PortId i) const
    {
        return wordset::testBit(live_in_.data(), i);
    }

    bool outputLive(PortId j) const
    {
        return wordset::testBit(live_out_.data(), j);
    }

    /** True when no port has been marked dead. */
    bool allPortsLive() const { return dead_ports_ == 0; }

    /** Total queued cells across all pairs. */
    int totalCells() const { return counts_.total(); }

    /** Clear all requests. */
    void clear();

    /** Zero every request from input i (counts and masks). */
    void clearRow(PortId i);

    /** Zero every request to output j (counts and masks). */
    void clearColumn(PortId j);

    /** Words per row mask (over outputs). */
    int rowWords() const { return row_words_; }

    /** Words per column mask (over inputs). */
    int colWords() const { return col_words_; }

    /** Row mask of input i: bit j set iff has(i, j). */
    const uint64_t* rowMask(PortId i) const
    {
        return row_masks_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

    /** Column mask of output j: bit i set iff has(i, j). */
    const uint64_t* colMask(PortId j) const
    {
        return col_masks_.data() +
               static_cast<size_t>(j) * static_cast<size_t>(col_words_);
    }

    /** Requested outputs, rowWords() words: bit j set iff colMask(j) is
        non-empty (requests hidden by dead ports are excluded). */
    const uint64_t* requestedOutputs() const { return req_out_.data(); }

    /**
     * Monotonic change counter: bumped on every visible-edge transition
     * and never reset, so any number of consumers holding a snapshot can
     * detect "anything changed?" in O(1).
     */
    uint64_t epoch() const { return epoch_; }

    /**
     * Generate a random pattern: each pair independently has one request
     * with probability p (the Table 1 workload).
     */
    static RequestMatrix bernoulli(int n, double p, Rng& rng);

  private:
    uint64_t* rowMaskMut(PortId i)
    {
        return row_masks_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

    uint64_t* colMaskMut(PortId j)
    {
        return col_masks_.data() +
               static_cast<size_t>(j) * static_cast<size_t>(col_words_);
    }

    /** Add (i,j) to the visible view: both masks, the requested
        outputs, the edge count and the epoch. */
    void showEdge(PortId i, PortId j);

    /** Remove the visible edge (i,j) from the view (see showEdge). */
    void hideEdge(PortId i, PortId j);

    Matrix<int> counts_;
    int row_words_;
    int col_words_;
    std::vector<uint64_t> row_masks_;  ///< numInputs x row_words_
    std::vector<uint64_t> col_masks_;  ///< numOutputs x col_words_
    std::vector<uint64_t> req_out_;    ///< bit j set = column j non-empty
    std::vector<uint64_t> live_in_;    ///< bit i set = input i live
    std::vector<uint64_t> live_out_;   ///< bit j set = output j live
    int dead_ports_ = 0;               ///< dead inputs + dead outputs
    int edges_ = 0;
    uint64_t epoch_ = 0;  ///< visible-edge transitions (see epoch())
};

}  // namespace an2

#endif  // AN2_MATCHING_REQUEST_MATRIX_H
