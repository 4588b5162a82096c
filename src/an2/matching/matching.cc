#include "an2/matching/matching.h"

#include "an2/base/error.h"

namespace an2 {

Matching::Matching(int n_inputs, int n_outputs, int output_capacity)
    : in2out_(static_cast<size_t>(
                  requirePositive(n_inputs, "matching input count")),
              kNoPort),
      out_degree_(static_cast<size_t>(
                      requirePositive(n_outputs, "matching output count")),
                  0),
      output_capacity_(output_capacity)
{
    AN2_REQUIRE(output_capacity >= 1, "output capacity must be >= 1");
}

void
Matching::reset(int n_inputs, int n_outputs, int output_capacity)
{
    AN2_REQUIRE(n_inputs > 0 && n_outputs > 0,
                "matching must have positive dimensions");
    AN2_REQUIRE(output_capacity >= 1, "output capacity must be >= 1");
    in2out_.assign(static_cast<size_t>(n_inputs), kNoPort);
    out_degree_.assign(static_cast<size_t>(n_outputs), 0);
    output_capacity_ = output_capacity;
    size_ = 0;
}

void
Matching::removeInput(PortId i)
{
    AN2_REQUIRE(i >= 0 && i < numInputs(), "input " << i << " out of range");
    PortId j = in2out_[static_cast<size_t>(i)];
    AN2_ASSERT(j != kNoPort, "input " << i << " is not matched");
    in2out_[static_cast<size_t>(i)] = kNoPort;
    --out_degree_[static_cast<size_t>(j)];
    --size_;
}

PortId
Matching::inputOf(PortId j) const
{
    AN2_REQUIRE(j >= 0 && j < numOutputs(), "output " << j << " out of range");
    for (PortId i = 0; i < numInputs(); ++i)
        if (in2out_[static_cast<size_t>(i)] == j)
            return i;
    return kNoPort;
}

std::vector<std::pair<PortId, PortId>>
Matching::pairs() const
{
    std::vector<std::pair<PortId, PortId>> result;
    result.reserve(static_cast<size_t>(size_));
    for (PortId i = 0; i < numInputs(); ++i)
        if (in2out_[static_cast<size_t>(i)] != kNoPort)
            result.emplace_back(i, in2out_[static_cast<size_t>(i)]);
    return result;
}

bool
Matching::isLegalFor(const RequestMatrix& req) const
{
    if (req.numInputs() != numInputs() || req.numOutputs() != numOutputs())
        return false;
    for (PortId i = 0; i < numInputs(); ++i) {
        PortId j = in2out_[static_cast<size_t>(i)];
        if (j != kNoPort && !req.has(i, j))
            return false;
    }
    return true;
}

bool
Matching::isMaximalFor(const RequestMatrix& req) const
{
    for (PortId i = 0; i < numInputs(); ++i) {
        if (isInputMatched(i))
            continue;
        for (PortId j = 0; j < numOutputs(); ++j)
            if (req.has(i, j) && !isOutputSaturated(j))
                return false;
    }
    return true;
}

}  // namespace an2
