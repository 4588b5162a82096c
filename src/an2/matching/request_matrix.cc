#include "an2/matching/request_matrix.h"

#include <algorithm>

namespace an2 {

RequestMatrix::RequestMatrix(int n_inputs, int n_outputs)
    : counts_(n_inputs, n_outputs, 0),
      row_words_(wordset::numWords(n_outputs)),
      col_words_(wordset::numWords(n_inputs)),
      row_masks_(static_cast<size_t>(n_inputs) *
                     static_cast<size_t>(row_words_),
                 0),
      col_masks_(static_cast<size_t>(n_outputs) *
                     static_cast<size_t>(col_words_),
                 0),
      live_in_(static_cast<size_t>(col_words_), 0),
      live_out_(static_cast<size_t>(row_words_), 0)
{
    AN2_REQUIRE(n_inputs > 0 && n_outputs > 0,
                "request matrix must have positive dimensions");
    wordset::fillFirst(live_in_.data(), col_words_, n_inputs);
    wordset::fillFirst(live_out_.data(), row_words_, n_outputs);
}

RequestMatrix::RequestMatrix(const RequestMatrix& other)
    : counts_(other.counts_),
      row_words_(other.row_words_),
      col_words_(other.col_words_),
      row_masks_(other.row_masks_),
      col_masks_(other.col_masks_),
      live_in_(other.live_in_),
      live_out_(other.live_out_),
      dead_ports_(other.dead_ports_),
      edges_(other.edges_),
      epoch_(other.epoch_ + 1)  // content wholesale-assigned
{
}

RequestMatrix&
RequestMatrix::operator=(const RequestMatrix& other)
{
    if (this == &other)
        return *this;
    const uint64_t own_epoch = epoch_;
    counts_ = other.counts_;
    row_words_ = other.row_words_;
    col_words_ = other.col_words_;
    row_masks_ = other.row_masks_;
    col_masks_ = other.col_masks_;
    live_in_ = other.live_in_;
    live_out_ = other.live_out_;
    dead_ports_ = other.dead_ports_;
    edges_ = other.edges_;
    // Any visible edge may have changed, so the epoch must advance past
    // every value a consumer of *this* may have snapshotted (the switch
    // overwrites its masked request copy every slot).
    epoch_ = std::max(own_epoch, other.epoch_) + 1;
    return *this;
}

void
RequestMatrix::set(PortId i, PortId j, int count)
{
    AN2_REQUIRE(count >= 0, "request count must be non-negative");
    int& cell = counts_.at(i, j);
    const bool was = cell > 0;
    const bool now = count > 0;
    cell = count;
    if (was == now)
        return;
    // Requests touching a dead port stay hidden: the masks and the edge
    // count track only the visible view.
    if (dead_ports_ > 0 && (!inputLive(i) || !outputLive(j)))
        return;
    if (now) {
        wordset::setBit(rowMaskMut(i), j);
        wordset::setBit(colMaskMut(j), i);
        ++edges_;
    } else {
        wordset::clearBit(rowMaskMut(i), j);
        wordset::clearBit(colMaskMut(j), i);
        --edges_;
    }
    ++epoch_;
}

void
RequestMatrix::decrement(PortId i, PortId j)
{
    int& cell = counts_.at(i, j);
    AN2_ASSERT(cell > 0,
               "decrement of empty request cell (" << i << "," << j << ")");
    if (--cell == 0) {
        if (dead_ports_ > 0 && (!inputLive(i) || !outputLive(j)))
            return;  // hidden edge: nothing visible to clear
        wordset::clearBit(rowMaskMut(i), j);
        wordset::clearBit(colMaskMut(j), i);
        --edges_;
        ++epoch_;
    }
}

void
RequestMatrix::setInputLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < numInputs(),
                "input port " << i << " out of range");
    if (inputLive(i) == live)
        return;
    uint64_t* row = rowMaskMut(i);
    if (!live) {
        // Hide row i: drop its visible edges from the column masks. Each
        // hidden edge is an edge-set transition, so the epoch records it
        // — a warm-started matcher must not reuse a pairing whose input
        // just died.
        wordset::forEachSet(row, row_words_, [&](int j) {
            wordset::clearBit(colMaskMut(j), i);
            --edges_;
            ++epoch_;
        });
        wordset::clearAll(row, row_words_);
        wordset::clearBit(live_in_.data(), i);
        ++dead_ports_;
    } else {
        wordset::setBit(live_in_.data(), i);
        --dead_ports_;
        // Re-expose the surviving requests toward live outputs; each
        // re-exposed edge is a transition the epoch must record
        // (hidden-then-revived requests reappear without any count
        // change, so the set/decrement paths never see them).
        for (PortId j = 0; j < numOutputs(); ++j) {
            if (counts_.at(i, j) > 0 && outputLive(j)) {
                wordset::setBit(row, j);
                wordset::setBit(colMaskMut(j), i);
                ++edges_;
                ++epoch_;
            }
        }
    }
}

void
RequestMatrix::setOutputLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < numOutputs(),
                "output port " << j << " out of range");
    if (outputLive(j) == live)
        return;
    uint64_t* col = colMaskMut(j);
    if (!live) {
        wordset::forEachSet(col, col_words_, [&](int i) {
            wordset::clearBit(rowMaskMut(i), j);
            --edges_;
            ++epoch_;
        });
        wordset::clearAll(col, col_words_);
        wordset::clearBit(live_out_.data(), j);
        ++dead_ports_;
    } else {
        wordset::setBit(live_out_.data(), j);
        --dead_ports_;
        for (PortId i = 0; i < numInputs(); ++i) {
            if (counts_.at(i, j) > 0 && inputLive(i)) {
                wordset::setBit(rowMaskMut(i), j);
                wordset::setBit(col, i);
                ++edges_;
                ++epoch_;
            }
        }
    }
}

void
RequestMatrix::clear()
{
    counts_.fill(0);
    std::fill(row_masks_.begin(), row_masks_.end(), 0);
    std::fill(col_masks_.begin(), col_masks_.end(), 0);
    edges_ = 0;
    ++epoch_;  // a wholesale wipe changes (or may change) every edge
}

void
RequestMatrix::clearRow(PortId i)
{
    uint64_t* row = rowMaskMut(i);
    wordset::forEachSet(row, row_words_, [&](int j) {
        counts_.at(i, j) = 0;
        wordset::clearBit(colMaskMut(j), i);
        --edges_;
        ++epoch_;
    });
    wordset::clearAll(row, row_words_);
    if (dead_ports_ > 0) {
        // Also zero requests hidden behind dead ports (the mask walk
        // above cannot see them); only paid when faults are active.
        for (PortId j = 0; j < numOutputs(); ++j)
            counts_.at(i, j) = 0;
    }
}

void
RequestMatrix::clearColumn(PortId j)
{
    uint64_t* col = colMaskMut(j);
    wordset::forEachSet(col, col_words_, [&](int i) {
        counts_.at(i, j) = 0;
        wordset::clearBit(rowMaskMut(i), j);
        --edges_;
        ++epoch_;
    });
    wordset::clearAll(col, col_words_);
    if (dead_ports_ > 0) {
        for (PortId i = 0; i < numInputs(); ++i)
            counts_.at(i, j) = 0;
    }
}

RequestMatrix
RequestMatrix::bernoulli(int n, double p, Rng& rng)
{
    RequestMatrix req(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (rng.nextBernoulli(p))
                req.set(i, j, 1);
    return req;
}

}  // namespace an2
