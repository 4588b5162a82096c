#include "scalar_matchers.h"

#include <algorithm>
#include <numeric>

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

// ------------------------------------------------------------------ PIM

ScalarPimMatcher::ScalarPimMatcher(const PimConfig& config)
    : config_(config), rng_(config.seed)
{
    AN2_REQUIRE(config_.iterations >= 0,
                "iterations must be >= 0 (0 = to completion)");
    AN2_REQUIRE(config_.output_capacity >= 1,
                "output capacity must be >= 1");
}

Matching
ScalarPimMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs(), config_.output_capacity);
    matchInto(req, m);
    return m;
}

void
ScalarPimMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    out.reset(req.numInputs(), req.numOutputs(), config_.output_capacity);
    if (accept_ptr_.empty()) {
        accept_ptr_.assign(static_cast<size_t>(req.numInputs()), 0);
        accept_outputs_ = req.numOutputs();
    }
    AN2_REQUIRE(static_cast<int>(accept_ptr_.size()) == req.numInputs() &&
                    accept_outputs_ == req.numOutputs(),
                "request matrix size changed without reset()");
    // An iteration with unresolved requests always adds at least one match
    // (some output grants, some input accepts), so "no progress" implies
    // maximality and the loop terminates for iterations == 0.
    for (int it = 0; config_.iterations == 0 || it < config_.iterations; ++it)
        if (runIteration(req, out, it) == 0)
            break;
}

int
ScalarPimMatcher::runIteration(const RequestMatrix& req, Matching& m, int it)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    obs::Recorder* const rec = obs::current();
    int requests_seen = 0;
    int grants_issued = 0;

    // Phase 1+2 (request + grant). Conceptually each unmatched input
    // broadcasts requests and each output chooses among them; we evaluate
    // the grant decision at the output, which sees exactly the requests
    // from currently-unmatched inputs.
    //
    // grants_to[i] lists the outputs granting to input i this iteration.
    std::vector<std::vector<PortId>> grants_to(static_cast<size_t>(n_in));
    std::vector<PortId> requesters;
    requesters.reserve(static_cast<size_t>(n_in));
    for (PortId j = 0; j < n_out; ++j) {
        int capacity_left = m.outputCapacity() - m.outputDegree(j);
        if (capacity_left <= 0)
            continue;
        requesters.clear();
        for (PortId i = 0; i < n_in; ++i)
            if (!m.isInputMatched(i) && req.has(i, j))
                requesters.push_back(i);
        if (requesters.empty())
            continue;
        if (rec)
            requests_seen += static_cast<int>(requesters.size());
        if (capacity_left == 1) {
            PortId pick = requesters[rng_.nextBelow(requesters.size())];
            grants_to[static_cast<size_t>(pick)].push_back(j);
            if (rec)
                ++grants_issued;
        } else {
            // Replicated-fabric generalization: grant up to k distinct
            // requesters, chosen uniformly without replacement.
            rng_.shuffle(requesters);
            int grants = std::min<int>(capacity_left,
                                       static_cast<int>(requesters.size()));
            for (int g = 0; g < grants; ++g)
                grants_to[static_cast<size_t>(requesters[static_cast<size_t>(g)])]
                    .push_back(j);
            if (rec)
                grants_issued += grants;
        }
    }

    // Phase 3 (accept): each input that received grants accepts one.
    int added = 0;
    for (PortId i = 0; i < n_in; ++i) {
        auto& grants = grants_to[static_cast<size_t>(i)];
        if (grants.empty())
            continue;
        PortId chosen;
        if (config_.accept == AcceptPolicy::Random) {
            chosen = grants[rng_.nextBelow(grants.size())];
        } else {
            // Round-robin: first granting output at or after the pointer.
            int ptr = accept_ptr_[static_cast<size_t>(i)];
            chosen = grants.front();
            int best_dist = n_out;
            for (PortId j : grants) {
                int dist = (j - ptr + n_out) % n_out;
                if (dist < best_dist) {
                    best_dist = dist;
                    chosen = j;
                }
            }
            accept_ptr_[static_cast<size_t>(i)] = (chosen + 1) % n_out;
        }
        m.add(i, chosen);
        ++added;
    }
    if (rec)
        rec->matchIteration(obs::MatchAlg::Pim, it, requests_seen,
                            grants_issued, added, m.size());
    return added;
}

// ---------------------------------------------------------------- iSLIP

ScalarIslipMatcher::ScalarIslipMatcher(int iterations, WarmStart warm)
    : iterations_(iterations), warm_(warm)
{
    AN2_REQUIRE(iterations >= 1, "iSLIP needs at least one iteration");
}

void
ScalarIslipMatcher::reset()
{
    grant_ptr_.clear();
    accept_ptr_.clear();
    warm_state_.invalidate();
}

Matching
ScalarIslipMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs());
    matchInto(req, m);
    return m;
}

void
ScalarIslipMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    if (grant_ptr_.empty()) {
        grant_ptr_.assign(static_cast<size_t>(n_out), 0);
        accept_ptr_.assign(static_cast<size_t>(n_in), 0);
    }
    AN2_REQUIRE(static_cast<int>(grant_ptr_.size()) == n_out &&
                    static_cast<int>(accept_ptr_.size()) == n_in,
                "request matrix size changed without reset()");
    out.reset(n_in, n_out);

    if (warm_ == WarmStart::On) {
        matchWarm(req, out);
        return;
    }
    for (int it = 0; it < iterations_; ++it)
        if (runIteration(req, out, it) == 0)
            break;
}

void
ScalarIslipMatcher::matchWarm(const RequestMatrix& req, Matching& out)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    obs::Recorder* const rec = obs::current();

    // Tier 1: the matrix object is untouched since the last remember(),
    // so the previous matching is replayed wholesale.
    if (warm_state_.unchanged(req)) {
        const int replayed = warm_state_.replay(out);
        if (rec) {
            rec->add(obs::Counter::MatchEdgesReused, replayed);
            rec->add(obs::Counter::WarmStartFullReuses, 1);
            rec->matchIteration(obs::MatchAlg::Islip, 0, 0, 0, 0,
                                out.size());
        }
        return;
    }

    // Tier 2: seed with the surviving previous edges, then one repair
    // pass over the free outputs in ascending order. Each free output
    // grants-and-matches the free requesting input nearest at-or-after
    // its grant pointer, and the grant pointer rotates past the repaired
    // pair (a warm matcher never runs the accept phase).
    int reused = warm_state_.seed(req, out);
    int repaired = 0;
    int requests_seen = 0;
    for (PortId j = 0; j < n_out; ++j) {
        if (out.isOutputSaturated(j))
            continue;
        int best_dist = n_in;
        PortId pick = kNoPort;
        for (PortId i = 0; i < n_in; ++i) {
            if (out.isInputMatched(i) || !req.has(i, j))
                continue;
            if (rec)
                ++requests_seen;
            int dist = (i - grant_ptr_[static_cast<size_t>(j)] + n_in) %
                       n_in;
            if (dist < best_dist) {
                best_dist = dist;
                pick = i;
            }
        }
        if (pick != kNoPort) {
            out.add(pick, j);
            ++repaired;
            grant_ptr_[static_cast<size_t>(j)] = (pick + 1) % n_in;
        }
    }
    warm_state_.remember(req, out);
    if (rec) {
        rec->add(obs::Counter::MatchEdgesReused, reused);
        rec->add(obs::Counter::MatchEdgesRepaired, repaired);
        rec->matchIteration(obs::MatchAlg::Islip, 0, requests_seen,
                            repaired, repaired, out.size());
    }
}

int
ScalarIslipMatcher::runIteration(const RequestMatrix& req, Matching& m,
                                 int it)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    obs::Recorder* const rec = obs::current();
    int requests_seen = 0;
    int grants_issued = 0;

    // Grant phase: each unmatched output grants to the requesting
    // unmatched input nearest at-or-after its pointer.
    std::vector<std::vector<PortId>> grants_to(static_cast<size_t>(n_in));
    for (PortId j = 0; j < n_out; ++j) {
        if (m.isOutputSaturated(j))
            continue;
        int best_dist = n_in;
        PortId pick = kNoPort;
        for (PortId i = 0; i < n_in; ++i) {
            if (m.isInputMatched(i) || !req.has(i, j))
                continue;
            if (rec)
                ++requests_seen;
            int dist = (i - grant_ptr_[static_cast<size_t>(j)] + n_in) %
                       n_in;
            if (dist < best_dist) {
                best_dist = dist;
                pick = i;
            }
        }
        if (pick != kNoPort) {
            grants_to[static_cast<size_t>(pick)].push_back(j);
            if (rec)
                ++grants_issued;
        }
    }

    // Accept phase: each input accepts the granting output nearest
    // at-or-after its pointer. Pointers move only for matches made in
    // the first iteration (the standard iSLIP rule, which guarantees
    // that the most recently served connection has lowest priority).
    int added = 0;
    for (PortId i = 0; i < n_in; ++i) {
        const auto& grants = grants_to[static_cast<size_t>(i)];
        if (grants.empty())
            continue;
        int best_dist = n_out;
        PortId chosen = grants.front();
        for (PortId j : grants) {
            int dist = (j - accept_ptr_[static_cast<size_t>(i)] + n_out) %
                       n_out;
            if (dist < best_dist) {
                best_dist = dist;
                chosen = j;
            }
        }
        m.add(i, chosen);
        ++added;
        if (it == 0) {
            accept_ptr_[static_cast<size_t>(i)] = (chosen + 1) % n_out;
            grant_ptr_[static_cast<size_t>(chosen)] = (i + 1) % n_in;
        }
    }
    if (rec)
        rec->matchIteration(obs::MatchAlg::Islip, it, requests_seen,
                            grants_issued, added, m.size());
    return added;
}

// --------------------------------------------------------------- greedy

ScalarGreedyMatcher::ScalarGreedyMatcher(bool randomize, uint64_t seed,
                                         WarmStart warm)
    : randomize_(randomize), warm_(warm), rng_(seed)
{
}

Matching
ScalarGreedyMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs());
    matchInto(req, m);
    return m;
}

void
ScalarGreedyMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    out.reset(n_in, n_out);

    obs::Recorder* const rec = obs::current();
    const bool warm = warm_ == WarmStart::On;
    // Warm tier 1: unchanged matrix object — replay the previous
    // matching wholesale; no shuffle, no PRNG draws.
    if (warm && warm_state_.unchanged(req)) {
        const int replayed = warm_state_.replay(out);
        if (rec) {
            rec->add(obs::Counter::MatchEdgesReused, replayed);
            rec->add(obs::Counter::WarmStartFullReuses, 1);
            rec->matchIteration(obs::MatchAlg::Greedy, 0, 0, 0, 0,
                                out.size());
        }
        return;
    }

    input_order_.resize(static_cast<size_t>(n_in));
    std::iota(input_order_.begin(), input_order_.end(), 0);
    if (randomize_)
        rng_.shuffle(input_order_);

    // The single greedy pass reports as iteration 0 of the obs probe
    // layer; requests are counted at the moment each input is visited.
    // Warm tier 2 seeds the matching before the pass; seeded inputs are
    // already matched when visited and consume no draw.
    int reused = 0;
    int requests_seen = 0;
    int grants_issued = 0;
    if (warm)
        reused = warm_state_.seed(req, out);
    std::vector<PortId> candidates;
    for (PortId i : input_order_) {
        if (out.isInputMatched(i))
            continue;  // warm-seeded (never taken on the cold path)
        candidates.clear();
        for (PortId j = 0; j < n_out; ++j)
            if (req.has(i, j) && !out.isOutputSaturated(j))
                candidates.push_back(j);
        if (candidates.empty())
            continue;
        if (rec) {
            requests_seen += static_cast<int>(candidates.size());
            ++grants_issued;
        }
        PortId j = randomize_ ? candidates[rng_.nextBelow(candidates.size())]
                              : candidates.front();
        out.add(i, j);
    }
    if (warm)
        warm_state_.remember(req, out);
    if (rec) {
        if (warm) {
            rec->add(obs::Counter::MatchEdgesReused, reused);
            rec->add(obs::Counter::MatchEdgesRepaired, out.size() - reused);
        }
        rec->matchIteration(obs::MatchAlg::Greedy, 0, requests_seen,
                            grants_issued, out.size() - reused, out.size());
    }
}

}  // namespace an2
