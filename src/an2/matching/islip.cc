#include "an2/matching/islip.h"

#include "an2/base/error.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

IslipMatcher::IslipMatcher(int iterations, WarmStart warm)
    : iterations_(iterations), warm_(warm)
{
    AN2_REQUIRE(iterations >= 1, "iSLIP needs at least one iteration");
}

std::string
IslipMatcher::name() const
{
    std::string n = "iSLIP(" + std::to_string(iterations_);
    if (warm_ == WarmStart::On)
        n += ",warm";
    n += ")";
    return n;
}

void
IslipMatcher::reset()
{
    grant_ptr_.clear();
    accept_ptr_.clear();
    warm_state_.invalidate();
}

Matching
IslipMatcher::match(const RequestMatrix& req)
{
    Matching m(req.numInputs(), req.numOutputs());
    matchInto(req, m);
    return m;
}

void
IslipMatcher::matchInto(const RequestMatrix& req, Matching& out)
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
    col_words_ = req.colWords();
    row_words_ = req.rowWords();
    free_in_.resize(static_cast<size_t>(col_words_));
    free_out_.resize(static_cast<size_t>(row_words_));
    granted_.resize(static_cast<size_t>(col_words_));
    requesters_.resize(static_cast<size_t>(col_words_));
    grant_rows_.resize(static_cast<size_t>(n_in) *
                       static_cast<size_t>(row_words_));
    wordset::fillFirst(free_in_.data(), col_words_, n_in);
    wordset::fillFirst(free_out_.data(), row_words_, n_out);
    for (int it = 0; it < iterations_; ++it)
        if (runWordIteration(req, out, it) == 0)
            break;
}

void
IslipMatcher::matchWarm(const RequestMatrix& req, Matching& out)
{
    using namespace wordset;
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    obs::Recorder* const rec = obs::current();

    // Tier 1: the matrix object is untouched since the last remember()
    // (epoch check; copies bump the epoch conservatively), so the
    // previous matching is replayed wholesale — still legal, still
    // maximal, O(N) with no arbitration at all.
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

    // Tier 2: seed with the previous edges that survive validation, then
    // one repair pass over the remaining free outputs in ascending
    // order. Each free output grants-and-matches the free requesting
    // input nearest at-or-after its grant pointer, and both pointers
    // rotate past a repaired pair. The result is maximal: an input left
    // free at the end was free when any output j was visited, so a
    // leftover requested (i, j) pair with j free would have produced a
    // repair at j. Only requested outputs are visited; an unrequested
    // one has nothing to repair.
    col_words_ = req.colWords();
    row_words_ = req.rowWords();
    free_in_.resize(static_cast<size_t>(col_words_));
    free_out_.resize(static_cast<size_t>(row_words_));
    requesters_.resize(static_cast<size_t>(col_words_));
    fillFirst(free_in_.data(), col_words_, n_in);
    fillFirst(free_out_.data(), row_words_, n_out);
    const int reused =
        warm_state_.seed(req, out, free_in_.data(), free_out_.data());
    int repaired = 0;
    int requests_seen = 0;
    const int cw = col_words_;
    uint64_t* reqsters = requesters_.data();
    const uint64_t* requested = req.requestedOutputs();
    forEachSetInBoth(free_out_.data(), requested, row_words_, [&](int j) {
        const uint64_t* col = req.colMask(j);
        uint64_t any = 0;
        for (int w = 0; w < cw; ++w) {
            reqsters[w] = col[w] & free_in_[static_cast<size_t>(w)];
            any |= reqsters[w];
        }
        if (any == 0)
            return;
        if (rec)
            requests_seen += popcountAll(reqsters, cw);
        int pick = firstSetAtOrAfter(reqsters, cw, n_in,
                                     grant_ptr_[static_cast<size_t>(j)]);
        out.add(pick, j);
        ++repaired;
        grant_ptr_[static_cast<size_t>(j)] = (pick + 1) % n_in;
        accept_ptr_[static_cast<size_t>(pick)] = (j + 1) % n_out;
        clearBit(free_in_.data(), pick);
    });
    warm_state_.remember(req, out);
    if (rec) {
        rec->add(obs::Counter::MatchEdgesReused, reused);
        rec->add(obs::Counter::MatchEdgesRepaired, repaired);
        rec->matchIteration(obs::MatchAlg::Islip, 0, requests_seen,
                            repaired, repaired, out.size());
    }
}

int
IslipMatcher::runWordIteration(const RequestMatrix& req, Matching& m,
                               int it)
{
    using namespace wordset;
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    const int cw = col_words_;
    const int rw = row_words_;
    uint64_t* granted = granted_.data();
    uint64_t* reqsters = requesters_.data();
    obs::Recorder* const rec = obs::current();
    int requests_seen = 0;
    int grants_issued = 0;

    // Grant phase: "nearest at-or-after the pointer" is a circular
    // first-set-bit search over (requesters & free inputs), at each free
    // output that some input requests.
    clearAll(granted, cw);
    const uint64_t* requested = req.requestedOutputs();
    forEachSetInBoth(free_out_.data(), requested, rw, [&](int j) {
        const uint64_t* col = req.colMask(j);
        uint64_t any = 0;
        for (int w = 0; w < cw; ++w) {
            reqsters[w] = col[w] & free_in_[static_cast<size_t>(w)];
            any |= reqsters[w];
        }
        if (any == 0)
            return;
        if (rec) {
            requests_seen += popcountAll(reqsters, cw);
            ++grants_issued;
        }
        int pick = firstSetAtOrAfter(reqsters, cw, n_in,
                                     grant_ptr_[static_cast<size_t>(j)]);
        uint64_t* row = grant_rows_.data() +
                        static_cast<size_t>(pick) * static_cast<size_t>(rw);
        if (!testBit(granted, pick)) {
            setBit(granted, pick);
            clearAll(row, rw);
        }
        setBit(row, j);
    });
    if (!anySet(granted, cw)) {
        if (rec)
            rec->matchIteration(obs::MatchAlg::Islip, it, 0, 0, 0, m.size());
        return 0;
    }

    // Accept phase. Pointers move only for matches made in the first
    // iteration (the standard iSLIP rule, which guarantees that the most
    // recently served connection has lowest priority).
    int added = 0;
    forEachSet(granted, cw, [&](int i) {
        uint64_t* row = grant_rows_.data() +
                        static_cast<size_t>(i) * static_cast<size_t>(rw);
        int chosen = firstSetAtOrAfter(row, rw, n_out,
                                       accept_ptr_[static_cast<size_t>(i)]);
        m.add(i, chosen);
        ++added;
        if (it == 0) {
            accept_ptr_[static_cast<size_t>(i)] = (chosen + 1) % n_out;
            grant_ptr_[static_cast<size_t>(chosen)] = (i + 1) % n_in;
        }
        clearBit(free_in_.data(), i);
        clearBit(free_out_.data(), chosen);
    });
    if (rec)
        rec->matchIteration(obs::MatchAlg::Islip, it, requests_seen,
                            grants_issued, added, m.size());
    return added;
}

}  // namespace an2
