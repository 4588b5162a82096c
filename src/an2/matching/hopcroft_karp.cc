#include "an2/matching/hopcroft_karp.h"

#include <bit>
#include <limits>

#include "an2/matching/wordset.h"

namespace an2 {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

}  // namespace

bool
HopcroftKarpMatcher::layer(const RequestMatrix& req)
{
    queue_.clear();
    for (PortId i = 0; i < req.numInputs(); ++i) {
        if (match_in_[static_cast<size_t>(i)] == kNoPort) {
            dist_[static_cast<size_t>(i)] = 0;
            queue_.push_back(i);
        } else {
            dist_[static_cast<size_t>(i)] = kInf;
        }
    }
    bool found = false;
    // An input is queued only when its layer is first set, so the queue
    // never holds more than numInputs() entries.
    for (size_t head = 0; head < queue_.size(); ++head) {
        const PortId i = queue_[head];
        wordset::forEachSet(req.rowMask(i), req.rowWords(), [&](int j) {
            PortId next = match_out_[static_cast<size_t>(j)];
            if (next == kNoPort) {
                found = true;
            } else if (dist_[static_cast<size_t>(next)] == kInf) {
                dist_[static_cast<size_t>(next)] =
                    dist_[static_cast<size_t>(i)] + 1;
                queue_.push_back(next);
            }
        });
    }
    return found;
}

bool
HopcroftKarpMatcher::augment(const RequestMatrix& req, PortId i)
{
    const uint64_t* row = req.rowMask(i);
    for (int w = 0; w < req.rowWords(); ++w) {
        for (uint64_t word = row[w]; word != 0; word &= word - 1) {
            const PortId j = w * wordset::kWordBits + std::countr_zero(word);
            PortId next = match_out_[static_cast<size_t>(j)];
            if (next == kNoPort ||
                (dist_[static_cast<size_t>(next)] ==
                     dist_[static_cast<size_t>(i)] + 1 &&
                 augment(req, next))) {
                match_in_[static_cast<size_t>(i)] = j;
                match_out_[static_cast<size_t>(j)] = i;
                return true;
            }
        }
    }
    dist_[static_cast<size_t>(i)] = kInf;
    return false;
}

void
HopcroftKarpMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    const auto n_in = static_cast<size_t>(req.numInputs());
    match_in_.assign(n_in, kNoPort);
    match_out_.assign(static_cast<size_t>(req.numOutputs()), kNoPort);
    dist_.resize(n_in);
    queue_.reserve(n_in);
    while (layer(req)) {
        for (PortId i = 0; i < req.numInputs(); ++i)
            if (match_in_[static_cast<size_t>(i)] == kNoPort)
                augment(req, i);
    }
    out.reset(req.numInputs(), req.numOutputs());
    for (PortId i = 0; i < req.numInputs(); ++i)
        if (match_in_[static_cast<size_t>(i)] != kNoPort)
            out.add(i, match_in_[static_cast<size_t>(i)]);
}

int
maximumMatchingSize(const RequestMatrix& req)
{
    HopcroftKarpMatcher matcher;
    return matcher.match(req).size();
}

}  // namespace an2
