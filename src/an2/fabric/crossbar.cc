#include "an2/fabric/crossbar.h"

#include "an2/base/error.h"

namespace an2 {

Crossbar::Crossbar(int n_inputs, int n_outputs)
    : n_inputs_(requirePositive(n_inputs, "crossbar input count")),
      n_outputs_(requirePositive(n_outputs, "crossbar output count")),
      route_(static_cast<size_t>(n_inputs), kNoPort)
{
}

void
Crossbar::configure(const Matching& matching)
{
    AN2_REQUIRE(matching.numInputs() == n_inputs_ &&
                    matching.numOutputs() == n_outputs_,
                "matching dimensions do not fit the crossbar");
    for (PortId i = 0; i < n_inputs_; ++i)
        route_[static_cast<size_t>(i)] = matching.outputOf(i);
    ++slots_;
}

PortId
Crossbar::routeOf(PortId i) const
{
    AN2_REQUIRE(i >= 0 && i < n_inputs_, "input " << i << " out of range");
    return route_[static_cast<size_t>(i)];
}

void
Crossbar::forward(const Cell& cell)
{
    AN2_REQUIRE(cell.input >= 0 && cell.input < n_inputs_,
                "cell input " << cell.input << " out of range");
    PortId configured = route_[static_cast<size_t>(cell.input)];
    AN2_ASSERT(configured == cell.output,
               "cell from input " << cell.input << " destined for output "
                                  << cell.output
                                  << " but crosspoint routes to "
                                  << configured);
    ++cells_forwarded_;
}

double
Crossbar::utilization() const
{
    if (slots_ == 0)
        return 0.0;
    return static_cast<double>(cells_forwarded_) /
           (static_cast<double>(slots_) * n_outputs_);
}

}  // namespace an2
