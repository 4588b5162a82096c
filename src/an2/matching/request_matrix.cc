#include "an2/matching/request_matrix.h"

#include <algorithm>

namespace an2 {

RequestMatrix::RequestMatrix(int n_inputs, int n_outputs)
    : n_inputs_(requirePositive(n_inputs, "request matrix inputs")),
      n_outputs_(requirePositive(n_outputs, "request matrix outputs")),
      row_words_(wordset::numWords(n_outputs)),
      col_words_(wordset::numWords(n_inputs)),
      wires_(static_cast<size_t>(n_inputs) * static_cast<size_t>(row_words_),
             0),
      row_masks_(wires_.size(), 0),
      col_masks_(static_cast<size_t>(n_outputs) *
                     static_cast<size_t>(col_words_),
                 0),
      req_out_(static_cast<size_t>(row_words_), 0),
      live_in_(static_cast<size_t>(col_words_), 0),
      live_out_(static_cast<size_t>(row_words_), 0)
{
    wordset::fillFirst(live_in_.data(), col_words_, n_inputs);
    wordset::fillFirst(live_out_.data(), row_words_, n_outputs);
}

RequestMatrix::RequestMatrix(const RequestMatrix& other)
    : n_inputs_(other.n_inputs_),
      n_outputs_(other.n_outputs_),
      row_words_(other.row_words_),
      col_words_(other.col_words_),
      wires_(other.wires_),
      row_masks_(other.row_masks_),
      col_masks_(other.col_masks_),
      req_out_(other.req_out_),
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
    n_inputs_ = other.n_inputs_;
    n_outputs_ = other.n_outputs_;
    row_words_ = other.row_words_;
    col_words_ = other.col_words_;
    wires_ = other.wires_;
    row_masks_ = other.row_masks_;
    col_masks_ = other.col_masks_;
    req_out_ = other.req_out_;
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
RequestMatrix::showEdge(PortId i, PortId j)
{
    wordset::setBit(rowMaskMut(i), j);
    wordset::setBit(colMaskMut(j), i);
    wordset::setBit(req_out_.data(), j);
    ++edges_;
    ++epoch_;
}

void
RequestMatrix::hideEdge(PortId i, PortId j)
{
    uint64_t* col = colMaskMut(j);
    wordset::clearBit(rowMaskMut(i), j);
    wordset::clearBit(col, i);
    if (!wordset::anySet(col, col_words_))
        wordset::clearBit(req_out_.data(), j);
    --edges_;
    ++epoch_;
}

void
RequestMatrix::set(PortId i, PortId j, bool request)
{
    AN2_ASSERT(i >= 0 && i < numInputs() && j >= 0 && j < numOutputs(),
               "request (" << i << "," << j << ") out of range");
    uint64_t* wires = wireRow(i);
    if (wordset::testBit(wires, j) == request)
        return;
    if (request)
        wordset::setBit(wires, j);
    else
        wordset::clearBit(wires, j);
    // Requests touching a dead port stay hidden: the masks and the edge
    // count track only the visible view.
    if (dead_ports_ > 0 && (!inputLive(i) || !outputLive(j)))
        return;
    if (request)
        showEdge(i, j);
    else
        hideEdge(i, j);
}

void
RequestMatrix::setInputLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < numInputs(),
                "input port " << i << " out of range");
    if (inputLive(i) == live)
        return;
    if (!live) {
        // Hide row i. Each hidden edge is an edge-set transition, so the
        // epoch records it — a warm-started matcher must not reuse a
        // pairing whose input just died.
        wordset::forEachSet(rowMask(i), row_words_,
                            [&](int j) { hideEdge(i, j); });
        wordset::clearBit(live_in_.data(), i);
        ++dead_ports_;
    } else {
        wordset::setBit(live_in_.data(), i);
        --dead_ports_;
        // Re-expose the raised wires toward live outputs; each re-exposed
        // edge is a transition the epoch must record (hidden-then-revived
        // requests reappear without any set() call).
        wordset::forEachSet(wireRow(i), row_words_, [&](int j) {
            if (outputLive(j))
                showEdge(i, j);
        });
    }
}

void
RequestMatrix::setOutputLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < numOutputs(),
                "output port " << j << " out of range");
    if (outputLive(j) == live)
        return;
    if (!live) {
        wordset::forEachSet(colMask(j), col_words_,
                            [&](int i) { hideEdge(i, j); });
        wordset::clearBit(live_out_.data(), j);
        ++dead_ports_;
    } else {
        wordset::setBit(live_out_.data(), j);
        --dead_ports_;
        for (PortId i = 0; i < numInputs(); ++i)
            if (wordset::testBit(wireRow(i), j) && inputLive(i))
                showEdge(i, j);
    }
}

void
RequestMatrix::assignMasked(const RequestMatrix& src, const uint64_t* busy_in,
                            const uint64_t* busy_out)
{
    AN2_REQUIRE(n_inputs_ == src.n_inputs_ && n_outputs_ == src.n_outputs_,
                "assignMasked: " << n_inputs_ << "x" << n_outputs_
                                 << " matrix from a " << src.n_inputs_ << "x"
                                 << src.n_outputs_ << " source");
    live_in_ = src.live_in_;
    live_out_ = src.live_out_;
    dead_ports_ = src.dead_ports_;
    int edges = 0;
    for (PortId i = 0; i < n_inputs_; ++i) {
        const uint64_t row_keep =
            wordset::testBit(busy_in, i) ? 0 : ~uint64_t{0};
        const size_t base =
            static_cast<size_t>(i) * static_cast<size_t>(row_words_);
        for (int w = 0; w < row_words_; ++w) {
            const uint64_t keep = row_keep & ~busy_out[w];
            wires_[base + w] = src.wires_[base + w] & keep;
            row_masks_[base + w] = src.row_masks_[base + w] & keep;
            edges += wordset::popcount64Swar(row_masks_[base + w]);
        }
    }
    wordset::clearAll(req_out_.data(), row_words_);
    for (PortId j = 0; j < n_outputs_; ++j) {
        const uint64_t col_keep =
            wordset::testBit(busy_out, j) ? 0 : ~uint64_t{0};
        const size_t base =
            static_cast<size_t>(j) * static_cast<size_t>(col_words_);
        uint64_t any = 0;
        for (int w = 0; w < col_words_; ++w) {
            col_masks_[base + w] =
                src.col_masks_[base + w] & col_keep & ~busy_in[w];
            any |= col_masks_[base + w];
        }
        if (any != 0)
            wordset::setBit(req_out_.data(), j);
    }
    edges_ = edges;
    epoch_ = std::max(epoch_, src.epoch_) + 1;
}

void
RequestMatrix::clear()
{
    std::fill(wires_.begin(), wires_.end(), 0);
    std::fill(row_masks_.begin(), row_masks_.end(), 0);
    std::fill(col_masks_.begin(), col_masks_.end(), 0);
    std::fill(req_out_.begin(), req_out_.end(), 0);
    edges_ = 0;
    ++epoch_;  // a wholesale wipe changes (or may change) every edge
}

void
RequestMatrix::clearRow(PortId i)
{
    wordset::forEachSet(rowMask(i), row_words_,
                        [&](int j) { hideEdge(i, j); });
    // The raw row also drops the wires hidden behind dead ports.
    wordset::clearAll(wireRow(i), row_words_);
}

void
RequestMatrix::clearColumn(PortId j)
{
    wordset::forEachSet(colMask(j), col_words_, [&](int i) {
        wordset::clearBit(wireRow(i), j);
        hideEdge(i, j);
    });
    if (dead_ports_ > 0) {
        // Also drop wires hidden behind dead ports (the mask walk above
        // cannot see them); only paid when faults are active.
        for (PortId i = 0; i < numInputs(); ++i)
            wordset::clearBit(wireRow(i), j);
    }
}

RequestMatrix
RequestMatrix::bernoulli(int n, double p, Rng& rng)
{
    RequestMatrix req(n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            if (rng.nextBernoulli(p))
                req.set(i, j, true);
    return req;
}

}  // namespace an2
