#include "windowed_fifo.h"

#include "an2/base/error.h"

namespace an2 {

WindowedFifoResult
windowedFifoMatch(const std::vector<std::vector<PortId>>& window_dests,
                  int n_outputs, int rounds, Rng& rng)
{
    const int n_in = static_cast<int>(window_dests.size());
    AN2_REQUIRE(n_in > 0, "need at least one input");
    AN2_REQUIRE(n_outputs > 0, "need at least one output");
    AN2_REQUIRE(rounds >= 1, "need at least one round");

    WindowedFifoResult result{Matching(n_in, n_outputs),
                              std::vector<int>(static_cast<size_t>(n_in), -1)};
    // cursor[i]: queue position the input will submit next round.
    std::vector<int> cursor(static_cast<size_t>(n_in), 0);

    for (int round = 0; round < rounds; ++round) {
        // Collect submissions per output.
        std::vector<std::vector<PortId>> contenders(
            static_cast<size_t>(n_outputs));
        bool any = false;
        for (PortId i = 0; i < n_in; ++i) {
            if (result.matching.isInputMatched(i))
                continue;
            const auto& dests = window_dests[static_cast<size_t>(i)];
            int c = cursor[static_cast<size_t>(i)];
            if (c >= static_cast<int>(dests.size()))
                continue;  // window exhausted
            PortId d = dests[static_cast<size_t>(c)];
            AN2_REQUIRE(d >= 0 && d < n_outputs,
                        "destination " << d << " out of range");
            if (result.matching.isOutputSaturated(d)) {
                // The output was claimed in an earlier round; this cell
                // loses immediately and the input moves down its queue.
                ++cursor[static_cast<size_t>(i)];
                continue;
            }
            contenders[static_cast<size_t>(d)].push_back(i);
            any = true;
        }
        if (!any)
            break;

        // Each contended output picks one winner at random; losers step
        // their cursor to the next queued cell.
        for (PortId j = 0; j < n_outputs; ++j) {
            auto& inputs = contenders[static_cast<size_t>(j)];
            if (inputs.empty())
                continue;
            size_t win = rng.nextBelow(inputs.size());
            for (size_t k = 0; k < inputs.size(); ++k) {
                PortId i = inputs[k];
                if (k == win) {
                    result.matching.add(i, j);
                    result.positions[static_cast<size_t>(i)] =
                        cursor[static_cast<size_t>(i)];
                } else {
                    ++cursor[static_cast<size_t>(i)];
                }
            }
        }
    }
    return result;
}

}  // namespace an2
