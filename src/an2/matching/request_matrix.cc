#include "an2/matching/request_matrix.h"

#include <algorithm>

namespace an2 {

RequestMatrix::RequestMatrix(int n_inputs, int n_outputs)
    : n_inputs_(requirePositive(n_inputs, "request matrix inputs")),
      n_outputs_(requirePositive(n_outputs, "request matrix outputs")),
      row_words_(wordset::numWords(n_outputs)),
      col_words_(wordset::numWords(n_inputs)),
      row_masks_(static_cast<size_t>(n_inputs) *
                     static_cast<size_t>(row_words_),
                 0),
      col_masks_(static_cast<size_t>(n_outputs) *
                     static_cast<size_t>(col_words_),
                 0),
      req_out_(static_cast<size_t>(row_words_), 0)
{
}

RequestMatrix::RequestMatrix(const RequestMatrix& other)
    : n_inputs_(other.n_inputs_),
      n_outputs_(other.n_outputs_),
      row_words_(other.row_words_),
      col_words_(other.col_words_),
      row_masks_(other.row_masks_),
      col_masks_(other.col_masks_),
      req_out_(other.req_out_),
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
    row_masks_ = other.row_masks_;
    col_masks_ = other.col_masks_;
    req_out_ = other.req_out_;
    edges_ = other.edges_;
    // Any edge may have changed, so the epoch must advance past every
    // value a consumer of *this* may have snapshotted.
    epoch_ = std::max(own_epoch, other.epoch_) + 1;
    return *this;
}

void
RequestMatrix::dropEdge(PortId i, PortId j)
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
    if (has(i, j) == request)
        return;
    if (!request) {
        dropEdge(i, j);
        return;
    }
    wordset::setBit(rowMaskMut(i), j);
    wordset::setBit(colMaskMut(j), i);
    wordset::setBit(req_out_.data(), j);
    ++edges_;
    ++epoch_;
}

void
RequestMatrix::assignMasked(const RequestMatrix& src, const uint64_t* busy_in,
                            const uint64_t* busy_out)
{
    AN2_REQUIRE(n_inputs_ == src.n_inputs_ && n_outputs_ == src.n_outputs_,
                "assignMasked: " << n_inputs_ << "x" << n_outputs_
                                 << " matrix from a " << src.n_inputs_ << "x"
                                 << src.n_outputs_ << " source");
    int edges = 0;
    for (PortId i = 0; i < n_inputs_; ++i) {
        const uint64_t row_keep =
            wordset::testBit(busy_in, i) ? 0 : ~uint64_t{0};
        const size_t base =
            static_cast<size_t>(i) * static_cast<size_t>(row_words_);
        for (int w = 0; w < row_words_; ++w) {
            row_masks_[base + w] =
                src.row_masks_[base + w] & row_keep & ~busy_out[w];
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
                        [&](int j) { dropEdge(i, j); });
}

void
RequestMatrix::clearColumn(PortId j)
{
    wordset::forEachSet(colMask(j), col_words_,
                        [&](int i) { dropEdge(i, j); });
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
