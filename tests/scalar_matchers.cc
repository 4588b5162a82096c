#include "scalar_matchers.h"

#include <algorithm>
#include <cmath>
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

// ---------------------------------------------------------- Statistical

ScalarStatisticalMatcher::ScalarStatisticalMatcher(
    Matrix<int> allocation, const StatisticalConfig& config)
    : alloc_(std::move(allocation)), config_(config), rng_(config.seed)
{
    AN2_REQUIRE(config_.units >= 2, "need at least two bandwidth units");
    AN2_REQUIRE(config_.rounds >= 1 && config_.rounds <= 2,
                "rounds must be 1 or 2");
    AN2_REQUIRE(alloc_.rows() > 0 && alloc_.rows() == alloc_.cols(),
                "allocation matrix must be square and non-empty");
    rebuildTables();
}

void
ScalarStatisticalMatcher::setAllocation(PortId i, PortId j, int alloc_units)
{
    AN2_REQUIRE(alloc_units >= 0, "allocation must be non-negative");
    int delta = alloc_units - alloc_.at(i, j);
    AN2_REQUIRE(alloc_.rowSum(i) + delta <= config_.units,
                "input " << i << " would be over-allocated");
    AN2_REQUIRE(alloc_.colSum(j) + delta <= config_.units,
                "output " << j << " would be over-allocated");
    alloc_.at(i, j) = alloc_units;
    rebuildTables();
}

void
ScalarStatisticalMatcher::rebuildTables()
{
    const int n = alloc_.rows();
    const int X = config_.units;
    for (int i = 0; i < n; ++i)
        AN2_REQUIRE(alloc_.rowSum(i) <= X, "input " << i << " over-allocated");
    for (int j = 0; j < n; ++j)
        AN2_REQUIRE(alloc_.colSum(j) <= X, "output " << j << " over-allocated");

    col_cum_.assign(static_cast<size_t>(n), {});
    for (int j = 0; j < n; ++j) {
        auto& cum = col_cum_[static_cast<size_t>(j)];
        cum.resize(static_cast<size_t>(n));
        int acc = 0;
        for (int i = 0; i < n; ++i) {
            acc += alloc_.at(i, j);
            cum[static_cast<size_t>(i)] = acc;
        }
    }

    auto binomial_cdf = [X](int n_units) {
        std::vector<double> cdf;
        if (n_units <= 0) {
            cdf.push_back(1.0);
            return cdf;
        }
        double q = (X - 1.0) / X;
        double pmf = std::pow(q, n_units);
        double acc = pmf;
        cdf.push_back(acc);
        for (int m = 0; m < n_units; ++m) {
            pmf *= static_cast<double>(n_units - m) /
                   (static_cast<double>(m + 1) * (X - 1.0));
            acc += pmf;
            cdf.push_back(std::min(acc, 1.0));
            if (1.0 - acc < 1e-15)
                break;
        }
        cdf.back() = 1.0;
        return cdf;
    };

    cond_cdf_.assign(static_cast<size_t>(n) * static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            int units = alloc_.at(i, j);
            if (units == 0)
                continue;
            auto uncond = binomial_cdf(units);
            std::vector<double> cond(uncond.size());
            double scale = static_cast<double>(X) / units;
            double tail = 0.0;
            for (size_t m = uncond.size(); m-- > 1;) {
                double pmf = uncond[m] - uncond[m - 1];
                tail += pmf * scale;
            }
            cond[0] = std::max(0.0, 1.0 - tail);
            double acc = cond[0];
            for (size_t m = 1; m < uncond.size(); ++m) {
                double pmf = uncond[m] - uncond[m - 1];
                acc += pmf * scale;
                cond[m] = std::min(acc, 1.0);
            }
            cond.back() = 1.0;
            cond_cdf_[static_cast<size_t>(i) * static_cast<size_t>(n) +
                      static_cast<size_t>(j)] = std::move(cond);
        }
    }

    imag_cdf_.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i)
        imag_cdf_[static_cast<size_t>(i)] = binomial_cdf(X - alloc_.rowSum(i));
}

namespace {

int
sampleCdf(const std::vector<double>& cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        --it;
    return static_cast<int>(it - cdf.begin());
}

}  // namespace

int
ScalarStatisticalMatcher::sampleVirtualGrants(PortId i, PortId j)
{
    return sampleCdf(
        cond_cdf_[static_cast<size_t>(i) * static_cast<size_t>(alloc_.rows()) +
                  static_cast<size_t>(j)],
        rng_.nextDouble());
}

int
ScalarStatisticalMatcher::sampleImaginaryGrants(PortId i)
{
    return sampleCdf(imag_cdf_[static_cast<size_t>(i)], rng_.nextDouble());
}

void
ScalarStatisticalMatcher::runRound(std::vector<PortId>& in2out)
{
    const int n = alloc_.rows();
    const int X = config_.units;
    in2out.assign(static_cast<size_t>(n), kNoPort);

    std::vector<std::vector<PortId>> grants_to(static_cast<size_t>(n));
    for (PortId j = 0; j < n; ++j) {
        const auto& cum = col_cum_[static_cast<size_t>(j)];
        int total = cum.back();
        if (total == 0)
            continue;
        auto ticket =
            static_cast<int>(rng_.nextBelow(static_cast<uint64_t>(X)));
        if (ticket >= total)
            continue;
        auto it = std::upper_bound(cum.begin(), cum.end(), ticket);
        auto i = static_cast<PortId>(it - cum.begin());
        grants_to[static_cast<size_t>(i)].push_back(j);
    }

    std::vector<int> weights;
    for (PortId i = 0; i < n; ++i) {
        const auto& grants = grants_to[static_cast<size_t>(i)];
        int imag = sampleImaginaryGrants(i);
        if (grants.empty() && imag == 0)
            continue;
        weights.assign(grants.size() + 1, 0);
        int total = imag;
        weights.back() = imag;
        for (size_t g = 0; g < grants.size(); ++g) {
            int m = sampleVirtualGrants(i, grants[g]);
            weights[g] = m;
            total += m;
        }
        if (total == 0)
            continue;
        size_t pick = rng_.pickWeighted(weights);
        if (pick < grants.size())
            in2out[static_cast<size_t>(i)] = grants[pick];
    }
}

Matching
ScalarStatisticalMatcher::matchAllocated()
{
    const int n = alloc_.rows();
    std::vector<PortId> round1;
    runRound(round1);

    Matching m(n, n);
    std::vector<bool> out_taken(static_cast<size_t>(n), false);
    for (PortId i = 0; i < n; ++i) {
        PortId j = round1[static_cast<size_t>(i)];
        if (j != kNoPort) {
            m.add(i, j);
            out_taken[static_cast<size_t>(j)] = true;
        }
    }

    if (config_.rounds == 2) {
        std::vector<PortId> round2;
        runRound(round2);
        for (PortId i = 0; i < n; ++i) {
            PortId j = round2[static_cast<size_t>(i)];
            if (j == kNoPort || m.isInputMatched(i) ||
                out_taken[static_cast<size_t>(j)])
                continue;
            m.add(i, j);
            out_taken[static_cast<size_t>(j)] = true;
        }
    }
    return m;
}

void
ScalarStatisticalMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    AN2_REQUIRE(req.numInputs() == alloc_.rows() &&
                    req.numOutputs() == alloc_.cols(),
                "request matrix size does not match allocation");
    Matching scheduled = matchAllocated();
    out.reset(req.numInputs(), req.numOutputs());
    for (auto [i, j] : scheduled.pairs())
        if (req.has(i, j))
            out.add(i, j);
}

}  // namespace an2
