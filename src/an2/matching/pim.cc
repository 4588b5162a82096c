#include "an2/matching/pim.h"

#include <algorithm>

#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

PimMatcher::PimMatcher(const PimConfig& config, std::unique_ptr<Rng> rng)
    : config_(config),
      rng_(rng ? std::move(rng) : std::make_unique<Xoshiro256>(config.seed))
{
    AN2_REQUIRE(config_.iterations >= 0,
                "iterations must be >= 0 (0 = to completion)");
    AN2_REQUIRE(config_.output_capacity >= 1,
                "output capacity must be >= 1");
}

std::string
PimMatcher::name() const
{
    std::string n = "PIM(";
    n += config_.iterations == 0 ? "complete"
                                 : std::to_string(config_.iterations);
    if (config_.accept == AcceptPolicy::RoundRobin)
        n += ",rr-accept";
    if (config_.output_capacity > 1)
        n += ",k=" + std::to_string(config_.output_capacity);
    n += ")";
    return n;
}

void
PimMatcher::reset()
{
    accept_ptr_.clear();
}

void
PimMatcher::ensureAcceptPtrs(const RequestMatrix& req)
{
    if (accept_ptr_.empty()) {
        accept_ptr_.assign(static_cast<size_t>(req.numInputs()), 0);
        accept_outputs_ = req.numOutputs();
    }
    AN2_REQUIRE(static_cast<int>(accept_ptr_.size()) == req.numInputs() &&
                    accept_outputs_ == req.numOutputs(),
                "request matrix size changed without reset()");
}

void
PimMatcher::prepareFastState(const RequestMatrix& req)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    col_words_ = req.colWords();
    row_words_ = req.rowWords();
    free_in_.resize(static_cast<size_t>(col_words_));
    free_out_.resize(static_cast<size_t>(row_words_));
    granted_.resize(static_cast<size_t>(col_words_));
    requesters_.resize(static_cast<size_t>(col_words_));
    grant_rows_.resize(static_cast<size_t>(n_in) *
                       static_cast<size_t>(row_words_));
    grant_order_.reserve(static_cast<size_t>(n_in));
    wordset::fillFirst(free_in_.data(), col_words_, n_in);
    wordset::fillFirst(free_out_.data(), row_words_, n_out);
}

Matching
PimMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs(), config_.output_capacity);
    matchInto(req, m);
    return m;
}

void
PimMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    out.reset(req.numInputs(), req.numOutputs(), config_.output_capacity);
    runIterations(req, out, config_.iterations, nullptr);
}

Matching
PimMatcher::matchDetailed(const RequestMatrix& req, PimRunStats& stats,
                          int max_iterations)
{
    Matching m(req.numInputs(), req.numOutputs(), config_.output_capacity);
    stats = PimRunStats{};
    runIterations(req, m, max_iterations, &stats);
    stats.reached_maximal = m.isMaximalFor(req);
    return m;
}

void
PimMatcher::runIterations(const RequestMatrix& req, Matching& m,
                          int max_iterations, PimRunStats* stats)
{
    ensureAcceptPtrs(req);
    const bool fast = config_.backend != MatcherBackend::Reference;
    if (fast)
        prepareFastState(req);
    // An iteration with unresolved requests always adds at least one match
    // (some output grants, some input accepts), so "no progress" implies
    // maximality and the loop terminates for max_iterations == 0.
    for (int it = 0; max_iterations == 0 || it < max_iterations; ++it) {
        const int added = fast ? runIterationFast(req, m, it)
                               : runIteration(req, m, it);
        if (stats) {
            ++stats->iterations_run;
            stats->matches_after_iteration.push_back(m.size());
        }
        if (added == 0)
            break;
    }
}

int
PimMatcher::runIteration(const RequestMatrix& req, Matching& m, int it)
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
            PortId pick = requesters[rng_->nextBelow(requesters.size())];
            grants_to[static_cast<size_t>(pick)].push_back(j);
            if (rec)
                ++grants_issued;
        } else {
            // Replicated-fabric generalization: grant up to k distinct
            // requesters, chosen uniformly without replacement.
            rng_->shuffle(requesters);
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
            chosen = grants[rng_->nextBelow(grants.size())];
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

int
PimMatcher::runIterationFast(const RequestMatrix& req, Matching& m, int it)
{
    using namespace wordset;
    const int n_out = req.numOutputs();
    const int cw = col_words_;
    const int rw = row_words_;
    uint64_t* granted = granted_.data();
    uint64_t* reqsters = requesters_.data();
    obs::Recorder* const rec = obs::current();
    int requests_seen = 0;
    int grants_issued = 0;

    // Grant phase: every free output with free requesters grants up to
    // its remaining capacity. The draw sequence matches the scalar core
    // exactly: outputs visited in ascending order, one
    // nextBelow(#requesters) draw when one grant is left, otherwise the
    // scalar core's shuffle over the requesters in ascending order.
    auto grant = [&](int i, int j) {
        uint64_t* row = grant_rows_.data() +
                        static_cast<size_t>(i) * static_cast<size_t>(rw);
        if (!testBit(granted, i)) {
            setBit(granted, i);
            clearAll(row, rw);
        }
        setBit(row, j);
    };
    clearAll(granted, cw);
    forEachSet(free_out_.data(), rw, [&](int j) {
        const uint64_t* col = req.colMask(j);
        uint64_t any = 0;
        for (int w = 0; w < cw; ++w) {
            reqsters[w] = col[w] & free_in_[static_cast<size_t>(w)];
            any |= reqsters[w];
        }
        if (any == 0)
            return;
        const int cnt = popcountAll(reqsters, cw);
        if (rec)
            requests_seen += cnt;
        const int capacity_left = m.outputCapacity() - m.outputDegree(j);
        if (capacity_left == 1) {
            grant(selectBit(reqsters, cw,
                            static_cast<int>(rng_->nextBelow(
                                static_cast<uint64_t>(cnt)))),
                  j);
            if (rec)
                ++grants_issued;
            return;
        }
        grant_order_.clear();
        forEachSet(reqsters, cw, [&](int i) { grant_order_.push_back(i); });
        rng_->shuffle(grant_order_);
        const int grants = std::min(capacity_left, cnt);
        for (int g = 0; g < grants; ++g)
            grant(grant_order_[static_cast<size_t>(g)], j);
        if (rec)
            grants_issued += grants;
    });
    if (!anySet(granted, cw)) {
        if (rec)
            rec->matchIteration(obs::MatchAlg::Pim, it, 0, 0, 0, m.size());
        return 0;
    }

    // Accept phase: every granted input accepts one grant — uniformly at
    // random, or the first at/after its round-robin pointer.
    int added = 0;
    forEachSet(granted, cw, [&](int i) {
        uint64_t* row = grant_rows_.data() +
                        static_cast<size_t>(i) * static_cast<size_t>(rw);
        int chosen;
        if (config_.accept == AcceptPolicy::Random) {
            int cnt = popcountAll(row, rw);
            chosen = selectBit(row, rw,
                               static_cast<int>(rng_->nextBelow(
                                   static_cast<uint64_t>(cnt))));
        } else {
            chosen = firstSetAtOrAfter(row, rw, n_out,
                                       accept_ptr_[static_cast<size_t>(i)]);
            accept_ptr_[static_cast<size_t>(i)] = (chosen + 1) % n_out;
        }
        m.add(i, chosen);
        clearBit(free_in_.data(), i);
        if (m.isOutputSaturated(chosen))
            clearBit(free_out_.data(), chosen);
        ++added;
    });
    if (rec)
        rec->matchIteration(obs::MatchAlg::Pim, it, requests_seen,
                            grants_issued, added, m.size());
    return added;
}

}  // namespace an2
