#include "an2/matching/fill_in.h"

#include "an2/base/error.h"
#include "an2/matching/wordset.h"

namespace an2 {

FillInMatcher::FillInMatcher(std::unique_ptr<Matcher> primary,
                             std::unique_ptr<Matcher> secondary)
    : primary_(std::move(primary)), secondary_(std::move(secondary))
{
    AN2_REQUIRE(primary_ != nullptr && secondary_ != nullptr,
                "both schedulers are required");
}

std::string
FillInMatcher::name() const
{
    return primary_->name() + "+" + secondary_->name();
}

void
FillInMatcher::reset()
{
    primary_->reset();
    secondary_->reset();
}

void
FillInMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    primary_->matchInto(req, out);
    AN2_ASSERT(out.isLegalFor(req), "primary returned an illegal matching");
    primary_pairs_ += out.size();

    // Hand the secondary scheduler only the requests between ports the
    // primary left idle: the request wires minus the matched inputs'
    // rows and the saturated outputs' columns, in one word pass.
    if (residual_.numInputs() != req.numInputs() ||
        residual_.numOutputs() != req.numOutputs())
        residual_ = RequestMatrix(req.numInputs(), req.numOutputs());
    busy_in_.assign(static_cast<size_t>(req.colWords()), 0);
    for (PortId i = 0; i < req.numInputs(); ++i)
        if (out.isInputMatched(i))
            wordset::setBit(busy_in_.data(), i);
    busy_out_.assign(static_cast<size_t>(req.rowWords()), 0);
    for (PortId j = 0; j < req.numOutputs(); ++j)
        if (out.isOutputSaturated(j))
            wordset::setBit(busy_out_.data(), j);
    residual_.assignMasked(req, busy_in_.data(), busy_out_.data());
    if (residual_.numEdges() == 0)
        return;

    secondary_->matchInto(residual_, fill_);
    AN2_ASSERT(fill_.isLegalFor(residual_),
               "fill-in returned an illegal matching");
    for (PortId i = 0; i < req.numInputs(); ++i) {
        if (fill_.isInputMatched(i)) {
            out.add(i, fill_.outputOf(i));
            ++fill_in_pairs_;
        }
    }
}

}  // namespace an2
