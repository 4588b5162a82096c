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
 * Port liveness (fault injection): setInputLive/setOutputLive mark ports
 * dead, which *hides* their requests — has() returns false, the row and
 * column masks exclude them, and numEdges() counts only visible edges —
 * without discarding the underlying wires: one raw row mask per input
 * keeps every raised wire, dead ports' included. Matchers consume only
 * has()/rowMask()/colMask()/requestedOutputs(), so a dead port can never
 * be granted by any matcher. Reviving a port re-exposes its surviving
 * raised wires. Liveness survives clear() and copy assignment.
 *
 * Change tracking (temporal locality): every mutation that changes the
 * *visible* edge set — a wire raised or dropped between live ports,
 * clearRow/clearColumn, clear(), and liveness flips hiding or
 * re-exposing edges — bumps an epoch counter, so a warm-starting matcher
 * detects a completely unchanged matrix in O(1). Setting a wire to the
 * state it already has changes nothing and leaves the epoch alone.
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
     * overwrite may change any visible edge without an individually
     * recorded transition, so a warm-started matcher must never
     * wholesale-reuse a matching across a copy (the per-edge seeding path
     * remains valid). Moves are exact.
     */
    RequestMatrix(const RequestMatrix& other);
    RequestMatrix& operator=(const RequestMatrix& other);
    RequestMatrix(RequestMatrix&&) = default;
    RequestMatrix& operator=(RequestMatrix&&) = default;

    int numInputs() const { return n_inputs_; }
    int numOutputs() const { return n_outputs_; }

    /** True when input i requests output j and both ports are live. One
        bit test against the incrementally maintained row mask (the masks
        hold exactly the visible edges). */
    bool has(PortId i, PortId j) const
    {
        AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
                   "request (" << i << "," << j << ") out of range");
        return wordset::testBit(rowMask(i), j);
    }

    /** Raise (true) or drop (false) the request wire from input i to
        output j. A wire touching a dead port stays hidden until both
        ports are live. */
    void set(PortId i, PortId j, bool request);

    /** Number of visible requests (O(1)); requests hidden by dead ports
        are excluded. */
    int numEdges() const { return edges_; }

    /**
     * Mark input i live or dead. Killing a port hides its requests from
     * has()/masks/numEdges() in O(row edges); reviving re-exposes its
     * raised wires in O(raised wires). Idempotent.
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

    /**
     * Become `src` with every wire from a port of `busy_in` (colWords()
     * words, over inputs) and every wire to a port of `busy_out`
     * (rowWords() words, over outputs) dropped: the same matrix as
     * copy-assigning `src` and then calling clearRow and clearColumn on
     * each busy port, written one word at a time. Liveness is copied
     * from `src`, and the epoch moves past both operands' as with
     * copy-assignment. Both matrices must have the same dimensions.
     */
    void assignMasked(const RequestMatrix& src, const uint64_t* busy_in,
                      const uint64_t* busy_out);

    /** Clear all requests. */
    void clear();

    /** Drop every wire from input i, hidden ones included. */
    void clearRow(PortId i);

    /** Drop every wire to output j, hidden ones included. */
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
     * Generate a random pattern: each pair independently requests with
     * probability p (the Table 1 workload).
     */
    static RequestMatrix bernoulli(int n, double p, Rng& rng);

  private:
    /** Raw wires of input i, rowWords() words: bit j set iff the wire
        (i,j) is raised, whatever the ports' liveness. */
    uint64_t* wireRow(PortId i)
    {
        return wires_.data() +
               static_cast<size_t>(i) * static_cast<size_t>(row_words_);
    }

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

    int n_inputs_;
    int n_outputs_;
    int row_words_;
    int col_words_;
    std::vector<uint64_t> wires_;      ///< numInputs x row_words_, raw
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
