#include "an2/matching/warm_start.h"

#include "an2/base/error.h"
#include "an2/matching/wordset.h"

namespace an2 {

int
WarmStartState::replay(Matching& out) const
{
    AN2_ASSERT(valid_, "replay() without a remembered matching");
    int replayed = 0;
    const int n = static_cast<int>(prev_.size());
    for (PortId i = 0; i < n; ++i) {
        PortId j = prev_[static_cast<size_t>(i)];
        if (j == kNoPort)
            continue;
        out.add(i, j);
        ++replayed;
    }
    return replayed;
}

int
WarmStartState::seed(const RequestMatrix& req, Matching& out,
                     uint64_t* free_in, uint64_t* free_out) const
{
    if (!validFor(req))
        return 0;
    int reused = 0;
    const int n = static_cast<int>(prev_.size());
    for (PortId i = 0; i < n; ++i) {
        PortId j = prev_[static_cast<size_t>(i)];
        if (j == kNoPort)
            continue;
        // One bit test: still requested. A mid-run port death drops the
        // port's wires, so its edges fail here and are not reused.
        if (!req.has(i, j))
            continue;
        out.add(i, j);
        wordset::clearBit(free_in, i);
        wordset::clearBit(free_out, j);
        ++reused;
    }
    return reused;
}

int
WarmStartState::seed(const RequestMatrix& req, Matching& out) const
{
    if (!validFor(req))
        return 0;
    int reused = 0;
    const int n = static_cast<int>(prev_.size());
    for (PortId i = 0; i < n; ++i) {
        PortId j = prev_[static_cast<size_t>(i)];
        if (j == kNoPort || !req.has(i, j))
            continue;
        out.add(i, j);
        ++reused;
    }
    return reused;
}

void
WarmStartState::remember(const RequestMatrix& req, const Matching& out)
{
    const int n_in = req.numInputs();
    prev_.resize(static_cast<size_t>(n_in));
    for (PortId i = 0; i < n_in; ++i)
        prev_[static_cast<size_t>(i)] = out.outputOf(i);
    n_outputs_ = req.numOutputs();
    last_req_ = &req;
    last_epoch_ = req.epoch();
    valid_ = true;
}

}  // namespace an2
