#include "an2/matching/serial_greedy.h"

#include <numeric>

#include "an2/base/error.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

SerialGreedyMatcher::SerialGreedyMatcher(bool randomize, uint64_t seed,
                                         WarmStart warm)
    : randomize_(randomize), warm_(warm),
      rng_(std::make_unique<Xoshiro256>(seed))
{
}

std::string
SerialGreedyMatcher::name() const
{
    std::string n = randomize_ ? "Greedy(random-order" : "Greedy(fixed-order";
    if (warm_ == WarmStart::On)
        n += ",warm";
    n += ")";
    return n;
}

void
SerialGreedyMatcher::reset()
{
    warm_state_.invalidate();
}

Matching
SerialGreedyMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs());
    matchInto(req, m);
    return m;
}

void
SerialGreedyMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    out.reset(n_in, n_out);

    obs::Recorder* const rec = obs::current();
    const bool warm = warm_ == WarmStart::On;
    // Warm tier 1: unchanged matrix object — replay the previous
    // matching wholesale (still legal and maximal); no shuffle, no
    // PRNG draws.
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
        rng_->shuffle(input_order_);

    // The single greedy pass reports as iteration 0 of the obs probe
    // layer; requests are counted at the moment each input is visited
    // (serial semantics). Warm tier 2 seeds the matching before the
    // pass; seeded inputs are already matched when visited and consume
    // no draw — the residual pass is the cold algorithm restricted to
    // the free ports, so the result stays maximal.
    using namespace wordset;
    int reused = 0;
    int requests_seen = 0;
    int grants_issued = 0;
    const int rw = req.rowWords();
    free_out_.resize(static_cast<size_t>(rw));
    candidates_.resize(static_cast<size_t>(rw));
    fillFirst(free_out_.data(), rw, n_out);
    if (warm) {
        reused = warm_state_.seed(req, out);
        for (PortId i = 0; i < n_in; ++i)
            if (PortId j = out.outputOf(i); j != kNoPort)
                clearBit(free_out_.data(), j);
    }
    for (PortId i : input_order_) {
        if (out.isInputMatched(i))
            continue;  // warm-seeded (never taken on the cold path)
        const uint64_t* row = req.rowMask(i);
        uint64_t any = 0;
        for (int w = 0; w < rw; ++w) {
            candidates_[static_cast<size_t>(w)] =
                row[w] & free_out_[static_cast<size_t>(w)];
            any |= candidates_[static_cast<size_t>(w)];
        }
        if (any == 0)
            continue;
        if (rec) {
            requests_seen += popcountAll(candidates_.data(), rw);
            ++grants_issued;
        }
        // The k-th candidate in ascending output order, with one PRNG
        // draw per matched input (or the lowest index when not
        // randomizing).
        int j;
        if (randomize_) {
            int cnt = popcountAll(candidates_.data(), rw);
            j = selectBit(candidates_.data(), rw,
                          static_cast<int>(rng_->nextBelow(
                              static_cast<uint64_t>(cnt))));
        } else {
            j = firstSet(candidates_.data(), rw);
        }
        out.add(i, j);
        clearBit(free_out_.data(), j);
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
