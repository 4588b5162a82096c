#include "an2/matching/multicast.h"

#include <algorithm>

#include "an2/base/error.h"

namespace an2 {

MulticastPim::MulticastPim(int n, const MulticastPimConfig& config)
    : n_(n), config_(config),
      rng_(config.seed)
{
    AN2_REQUIRE(n > 0, "switch size must be positive");
    AN2_REQUIRE(config.iterations >= 1, "need at least one iteration");
}

namespace {

/** True when request r's fanout contains output j. */
bool
wants(const MulticastRequest& r, PortId j)
{
    return std::find(r.outputs.begin(), r.outputs.end(), j) !=
           r.outputs.end();
}

}  // namespace

MulticastMatch
MulticastPim::match(const std::vector<MulticastRequest>& requests)
{
    std::vector<bool> input_seen(static_cast<size_t>(n_), false);
    for (const auto& r : requests) {
        AN2_REQUIRE(r.input >= 0 && r.input < n_,
                    "input " << r.input << " out of range");
        AN2_REQUIRE(!input_seen[static_cast<size_t>(r.input)],
                    "duplicate multicast request for input " << r.input);
        input_seen[static_cast<size_t>(r.input)] = true;
        AN2_REQUIRE(!r.outputs.empty(), "empty fanout set");
        std::vector<bool> out_seen(static_cast<size_t>(n_), false);
        for (PortId j : r.outputs) {
            AN2_REQUIRE(j >= 0 && j < n_, "output " << j << " out of range");
            AN2_REQUIRE(!out_seen[static_cast<size_t>(j)],
                        "duplicate output " << j << " in fanout set");
            out_seen[static_cast<size_t>(j)] = true;
        }
    }

    MulticastMatch result;
    result.won.assign(requests.size(), {});

    if (config_.fanout_splitting) {
        // With splitting, one grant round settles everything: each
        // contended output picks a requester, and every grant is served
        // by that input's single (replicated) transmission, so no output
        // ever goes back into contention.
        std::vector<int> requesters;
        for (PortId j = 0; j < n_; ++j) {
            requesters.clear();
            for (size_t r = 0; r < requests.size(); ++r)
                if (wants(requests[r], j))
                    requesters.push_back(static_cast<int>(r));
            if (requesters.empty())
                continue;
            int pick = requesters[rng_.nextBelow(requesters.size())];
            result.won[static_cast<size_t>(pick)].push_back(j);
        }
    } else {
        // All-or-nothing: iterate tentative grant rounds. A request
        // locks in when it wins its entire fanout; a request that lost
        // an output to a *locked* transmission can never complete this
        // slot and withdraws, freeing its other outputs for rivals.
        std::vector<bool> locked_out(static_cast<size_t>(n_), false);
        enum class State { Candidate, Locked, Withdrawn };
        std::vector<State> state(requests.size(), State::Candidate);
        for (int it = 0; it < config_.iterations; ++it) {
            // Tentative grants among surviving candidates.
            std::vector<int> tentative_owner(static_cast<size_t>(n_), -1);
            std::vector<int> requesters;
            for (PortId j = 0; j < n_; ++j) {
                if (locked_out[static_cast<size_t>(j)])
                    continue;
                requesters.clear();
                for (size_t r = 0; r < requests.size(); ++r)
                    if (state[r] == State::Candidate &&
                        wants(requests[r], j))
                        requesters.push_back(static_cast<int>(r));
                if (requesters.empty())
                    continue;
                tentative_owner[static_cast<size_t>(j)] =
                    requesters[rng_.nextBelow(requesters.size())];
            }
            // Lock complete winners; everyone else releases.
            for (size_t r = 0; r < requests.size(); ++r) {
                if (state[r] != State::Candidate)
                    continue;
                bool complete = true;
                for (PortId j : requests[r].outputs) {
                    if (tentative_owner[static_cast<size_t>(j)] !=
                        static_cast<int>(r)) {
                        complete = false;
                        break;
                    }
                }
                if (complete) {
                    state[r] = State::Locked;
                    for (PortId j : requests[r].outputs) {
                        locked_out[static_cast<size_t>(j)] = true;
                        result.won[r].push_back(j);
                    }
                }
            }
            // Candidates blocked by a locked output can never complete.
            int candidates_left = 0;
            for (size_t r = 0; r < requests.size(); ++r) {
                if (state[r] != State::Candidate)
                    continue;
                for (PortId j : requests[r].outputs) {
                    if (locked_out[static_cast<size_t>(j)]) {
                        state[r] = State::Withdrawn;
                        break;
                    }
                }
                if (state[r] == State::Candidate)
                    ++candidates_left;
            }
            // Even a lock-free round is worth retrying: fresh random
            // grants can break the tie next iteration. Stop only when
            // nobody is left trying.
            if (candidates_left == 0)
                break;
        }
    }

    for (size_t r = 0; r < requests.size(); ++r) {
        std::sort(result.won[r].begin(), result.won[r].end());
        result.deliveries += static_cast<int>(result.won[r].size());
        if (result.won[r].size() == requests[r].outputs.size())
            ++result.completed;
    }
    return result;
}

}  // namespace an2
