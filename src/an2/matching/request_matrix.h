/**
 * @file
 * The scheduling problem input: which input-output pairs have queued cells.
 *
 * Switch scheduling is bipartite matching (paper §3.4): inputs and outputs
 * are the two node sets, and an edge (i,j) exists when input i has at least
 * one cell queued for output j. In the AN2 hardware the request state is
 * literally one wire per port pair (§3.3), and the RequestMatrix keeps
 * exactly that: one bit per pair. How many cells wait behind a wire is
 * the input buffer's business (InputBuffer::cellCountFor); no matcher
 * reads it.
 *
 * The bits are kept, incrementally on every mutation, in the
 * bit-parallel view the word-parallel matchers consume: a row mask per
 * input (bit j set when input i requests output j), a column mask per
 * output (bit i set when input i requests output j), the set of
 * requested outputs (bit j set when column j is non-empty), and the edge
 * count. An output's arbiter acts only when one of its wires is high:
 * the matchers grant over the requested outputs, so a slot pays for
 * outputs with work, not for every port. A switch raises and drops wires
 * as cells arrive and depart instead of rebuilding O(N^2) state every
 * slot.
 *
 * A dead port's requests are the switch's business, as its cells are:
 * InputQueuedSwitch drops a dead port's wires and raises them again
 * from its VOQs when the port revives, so a matcher never sees them.
 *
 * Change tracking (temporal locality): every mutation that changes the
 * edge set — a wire raised or dropped, clearRow/clearColumn, clear() —
 * bumps an epoch counter, so a warm-starting matcher detects a
 * completely unchanged matrix in O(1). Setting a wire to the state it
 * already has changes nothing and leaves the epoch alone.
 *
 * A switch that serves reserved (CBR) cells first matches its datagram
 * traffic over the ports left free: assignMasked() rebuilds a scratch
 * matrix as the request wires minus the busy ports' rows and columns,
 * a pass of ANDs over the words rather than one edge at a time.
 */
#ifndef AN2_MATCHING_REQUEST_MATRIX_H
#define AN2_MATCHING_REQUEST_MATRIX_H

#include <cstdint>
#include <vector>

#include "an2/base/error.h"
#include "an2/base/rng.h"
#include "an2/base/types.h"
#include "an2/matching/wordset.h"

namespace an2 {

/** The virtual output queues' request wires for the next slot. */
class RequestMatrix
{
  public:
    /** Empty n_inputs x n_outputs request matrix. */
    RequestMatrix(int n_inputs, int n_outputs);

    /** Square n x n request matrix. */
    explicit RequestMatrix(int n) : RequestMatrix(n, n) {}

    /**
     * Copying bumps the destination's epoch past both operands: an
     * overwrite may change any edge without an individually recorded
     * transition, so a warm-started matcher must never wholesale-reuse a
     * matching across a copy (the per-edge seeding path remains valid).
     * Moves are exact.
     */
    RequestMatrix(const RequestMatrix& other);
    RequestMatrix& operator=(const RequestMatrix& other);
    RequestMatrix(RequestMatrix&&) = default;
    RequestMatrix& operator=(RequestMatrix&&) = default;

    int numInputs() const { return n_inputs_; }
    int numOutputs() const { return n_outputs_; }

    /** True when input i requests output j. One bit test against the
        incrementally maintained row mask. */
    bool has(PortId i, PortId j) const
    {
        AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
                   "request (" << i << "," << j << ") out of range");
        return wordset::testBit(rowMask(i), j);
    }

    /** Raise (true) or drop (false) the request wire from input i to
        output j. */
    void set(PortId i, PortId j, bool request);

    /** Number of requests (O(1)). */
    int numEdges() const { return edges_; }

    /**
     * Become `src` with every wire from a port of `busy_in` (colWords()
     * words, over inputs) and every wire to a port of `busy_out`
     * (rowWords() words, over outputs) dropped: the same matrix as
     * copy-assigning `src` and then calling clearRow and clearColumn on
     * each busy port, written one word at a time. The epoch moves past
     * both operands' as with copy-assignment. Both matrices must have
     * the same dimensions.
     */
    void assignMasked(const RequestMatrix& src, const uint64_t* busy_in,
                      const uint64_t* busy_out);

    /** Clear all requests. */
    void clear();

    /** Drop every wire from input i. */
    void clearRow(PortId i);

    /** Drop every wire to output j. */
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
        non-empty. */
    const uint64_t* requestedOutputs() const { return req_out_.data(); }

    /**
     * Monotonic change counter: bumped on every edge transition and
     * never reset, so any number of consumers holding a snapshot can
     * detect "anything changed?" in O(1).
     */
    uint64_t epoch() const { return epoch_; }

    /**
     * Generate a random pattern: each pair independently requests with
     * probability p (the Table 1 workload).
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

    /** Drop the edge (i,j): both masks, the requested outputs, the edge
        count and the epoch. */
    void dropEdge(PortId i, PortId j);

    int n_inputs_;
    int n_outputs_;
    int row_words_;
    int col_words_;
    std::vector<uint64_t> row_masks_;  ///< numInputs x row_words_
    std::vector<uint64_t> col_masks_;  ///< numOutputs x col_words_
    std::vector<uint64_t> req_out_;    ///< bit j set = column j non-empty
    int edges_ = 0;
    uint64_t epoch_ = 0;  ///< edge transitions (see epoch())
};

}  // namespace an2

#endif  // AN2_MATCHING_REQUEST_MATRIX_H
