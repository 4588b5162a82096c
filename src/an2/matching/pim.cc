#include "an2/matching/pim.h"

#include <algorithm>
#include <type_traits>

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
PimMatcher::prepareWordState(const RequestMatrix& req)
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
    prepareWordState(req);
    // An iteration with unresolved requests always adds at least one match
    // (some output grants, some input accepts), so "no progress" implies
    // maximality and the loop terminates for max_iterations == 0.
    auto iterate = [&](auto words) {
        for (int it = 0; max_iterations == 0 || it < max_iterations; ++it) {
            const int added =
                runWordIteration<decltype(words)::value>(req, m, it);
            if (stats) {
                ++stats->iterations_run;
                stats->matches_after_iteration.push_back(m.size());
            }
            if (added == 0)
                break;
        }
    };
    // Up to 64 ports every port set is one word, so the one-word
    // instance runs each phase without a loop over words.
    if (col_words_ == 1 && row_words_ == 1)
        iterate(std::integral_constant<int, 1>{});
    else
        iterate(std::integral_constant<int, 0>{});
}

template <int kWords>
int
PimMatcher::runWordIteration(const RequestMatrix& req, Matching& m, int it)
{
    using namespace wordset;
    const int n_out = req.numOutputs();
    const int cw = kWords != 0 ? kWords : col_words_;
    const int rw = kWords != 0 ? kWords : row_words_;
    // Local pointers: the engine's draws are virtual calls, across which
    // the compiler would otherwise reload every member vector's data.
    uint64_t* const free_in = free_in_.data();
    uint64_t* const free_out = free_out_.data();
    uint64_t* const granted = granted_.data();
    uint64_t* const reqsters = requesters_.data();
    uint64_t* const grant_rows = grant_rows_.data();
    Rng& rng = *rng_;
    // At capacity 1 every output still in free_out has exactly one grant
    // left, so no output's degree needs reading.
    const bool unit_capacity = m.outputCapacity() == 1;
    obs::Recorder* const rec = obs::current();
    int requests_seen = 0;
    int grants_issued = 0;

    // Grant phase: every free output with free requesters grants up to
    // its remaining capacity. The draw sequence is the scalar algorithm's
    // (the test oracle ScalarPimMatcher): outputs visited in ascending
    // order, one nextBelow(#requesters) draw when one grant is left,
    // otherwise a shuffle of the requesters in ascending order. Only
    // requested outputs are visited: an output with an empty column has
    // no requester, so it would draw and count nothing.
    //
    // An input's grant row is cleared by its first grant of the round:
    // the row keeps its words only when the input's granted bit is
    // already set, a mask instead of a branch.
    auto grant = [&](int i, int j) {
        uint64_t* row = grant_rows + static_cast<size_t>(i) *
                                         static_cast<size_t>(rw);
        uint64_t& word = granted[i / kWordBits];
        const uint64_t keep = uint64_t{0} - ((word >> (i % kWordBits)) & 1);
        word |= uint64_t{1} << (i % kWordBits);
        for (int w = 0; w < rw; ++w)
            row[w] &= keep;
        setBit(row, j);
    };
    clearAll(granted, cw);
    forEachSetInBoth(free_out, req.requestedOutputs(), rw, [&](int j) {
        const uint64_t* col = req.colMask(j);
        int cnt = 0;
        for (int w = 0; w < cw; ++w) {
            reqsters[w] = col[w] & free_in[w];
            cnt += popcount64(reqsters[w]);
        }
        if (cnt == 0)
            return;
        if (rec)
            requests_seen += cnt;
        const int capacity_left =
            unit_capacity ? 1 : m.outputCapacity() - m.outputDegree(j);
        if (capacity_left == 1) {
            grant(selectBit(reqsters, cw,
                            static_cast<int>(rng.nextBelow(
                                static_cast<uint64_t>(cnt)))),
                  j);
            if (rec)
                ++grants_issued;
            return;
        }
        grant_order_.clear();
        forEachSet(reqsters, cw, [&](int i) { grant_order_.push_back(i); });
        rng.shuffle(grant_order_);
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
    auto accept = [&](int i, int chosen) {
        m.add(i, chosen);
        clearBit(free_in, i);
        if (unit_capacity || m.isOutputSaturated(chosen))
            clearBit(free_out, chosen);
        ++added;
    };
    if (config_.accept == AcceptPolicy::Random) {
        forEachSet(granted, cw, [&](int i) {
            const uint64_t* row = grant_rows + static_cast<size_t>(i) *
                                                   static_cast<size_t>(rw);
            const int cnt = popcountAll(row, rw);
            accept(i, selectBit(row, rw,
                                static_cast<int>(rng.nextBelow(
                                    static_cast<uint64_t>(cnt)))));
        });
    } else {
        forEachSet(granted, cw, [&](int i) {
            const uint64_t* row = grant_rows + static_cast<size_t>(i) *
                                                   static_cast<size_t>(rw);
            int& ptr = accept_ptr_[static_cast<size_t>(i)];
            const int chosen = firstSetAtOrAfter(row, rw, n_out, ptr);
            ptr = (chosen + 1) % n_out;
            accept(i, chosen);
        });
    }
    if (rec)
        rec->matchIteration(obs::MatchAlg::Pim, it, requests_seen,
                            grants_issued, added, m.size());
    return added;
}

}  // namespace an2
