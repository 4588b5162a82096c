// Tests for warm-started incremental matching (an2/matching/warm_start.h):
// matchings seeded from the previous slot must stay legal and maximal
// under request churn, fault-driven liveness flips, and matrix copies,
// and WarmStart::Off must leave every matcher's decisions untouched.
#include "an2/matching/warm_start.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/islip.h"
#include "an2/matching/matcher.h"
#include "an2/matching/request_matrix.h"
#include "an2/matching/serial_greedy.h"
#include "an2/obs/recorder.h"
#include "scalar_matchers.h"

namespace an2 {
namespace {

// A maximal matching admits no augmenting edge: every requested (i,j)
// with both endpoints free would have been picked up by the repair pass.
void
expectMaximal(const RequestMatrix& req, const Matching& m,
              const std::string& ctx)
{
    std::vector<bool> out_used(static_cast<size_t>(req.numOutputs()), false);
    for (PortId i = 0; i < req.numInputs(); ++i) {
        PortId j = m.outputOf(i);
        if (j != kNoPort)
            out_used[static_cast<size_t>(j)] = true;
    }
    for (PortId i = 0; i < req.numInputs(); ++i) {
        if (m.isInputMatched(i))
            continue;
        for (PortId j = 0; j < req.numOutputs(); ++j) {
            EXPECT_FALSE(req.has(i, j) && !out_used[static_cast<size_t>(j)])
                << ctx << ": unmatched request (" << i << "," << j
                << ") with both ports free";
        }
    }
}

void
expectAvoidsDeadPorts(const RequestMatrix& req, const Matching& m,
                      const std::string& ctx)
{
    for (PortId i = 0; i < req.numInputs(); ++i) {
        PortId j = m.outputOf(i);
        if (j == kNoPort)
            continue;
        EXPECT_TRUE(req.inputLive(i))
            << ctx << ": dead input " << i << " matched";
        EXPECT_TRUE(req.outputLive(j))
            << ctx << ": dead output " << j << " matched";
    }
}

struct WarmConfig
{
    std::string name;
    std::unique_ptr<Matcher> (*make)(WarmStart warm);
};

std::vector<WarmConfig>
warmConfigs()
{
    std::vector<WarmConfig> configs;
    configs.push_back({"islip-reference",
                       [](WarmStart w) -> std::unique_ptr<Matcher> {
                           return std::make_unique<ScalarIslipMatcher>(4, w);
                       }});
    configs.push_back({"islip-word",
                       [](WarmStart w) -> std::unique_ptr<Matcher> {
                           return std::make_unique<IslipMatcher>(4, w);
                       }});
    configs.push_back({"greedy-reference",
                       [](WarmStart w) -> std::unique_ptr<Matcher> {
                           return std::make_unique<ScalarGreedyMatcher>(
                               true, 7, w);
                       }});
    configs.push_back({"greedy-word",
                       [](WarmStart w) -> std::unique_ptr<Matcher> {
                           return std::make_unique<SerialGreedyMatcher>(
                               true, 7, w);
                       }});
    return configs;
}

// The churn-and-faults stream's size and length: more ports than one
// mask word, so the multi-word paths run.
constexpr int kChurnPorts = 70;
constexpr int kChurnRounds = 160;

/** One round of the churn-and-faults stream: about one request per port
    changes, removals included; output 13 dies at round 40 (with edges
    being reused), input 5 at round 70, and both revive at round 100. */
void
churnAndFaults(RequestMatrix& req, Xoshiro256& rng, int round)
{
    for (int t = 0; t < kChurnPorts; ++t) {
        auto i = static_cast<PortId>(rng.nextBelow(kChurnPorts));
        auto j = static_cast<PortId>(rng.nextBelow(kChurnPorts));
        if (rng.nextBernoulli(0.7))
            req.increment(i, j);
        else if (req.count(i, j) > 0)
            req.decrement(i, j);
    }
    if (round == 40)
        req.setOutputLive(13, false);
    if (round == 70)
        req.setInputLive(5, false);
    if (round == 100) {
        req.setOutputLive(13, true);
        req.setInputLive(5, true);
    }
}

// Random request churn with mid-run port death and revival: every warm
// matching must be legal, avoid dead ports, and be maximal — including
// the slots right after a liveness flip, where any stale reused edge
// would surface.
TEST(WarmStartProperty, LegalAndMaximalUnderChurnAndFaults)
{
    for (const WarmConfig& cfg : warmConfigs()) {
        auto matcher = cfg.make(WarmStart::On);
        RequestMatrix req(kChurnPorts);
        Matching m(kChurnPorts);
        Xoshiro256 rng(2026);
        for (int round = 0; round < kChurnRounds; ++round) {
            churnAndFaults(req, rng, round);
            matcher->matchInto(req, m);
            const std::string ctx =
                cfg.name + " round " + std::to_string(round);
            EXPECT_TRUE(m.isLegalFor(req)) << ctx;
            expectAvoidsDeadPorts(req, m, ctx);
            expectMaximal(req, m, ctx);
        }
    }
}

// The library's warm cores make the scalar oracles' warm decisions pair
// for pair: the same matching every round of the churn-and-faults
// stream, and the same reuse, repair and full-reuse counts. Every tenth
// round is matched twice, the second time on the unchanged matrix, so
// the wholesale-replay tier is compared too.
TEST(WarmStartEquivalence, OracleAndLibraryAgreeUnderChurnAndFaults)
{
    struct Pair
    {
        std::string name;
        std::unique_ptr<Matcher> oracle;
        std::unique_ptr<Matcher> library;
    };
    std::vector<Pair> pairs;
    pairs.push_back({"islip",
                     std::make_unique<ScalarIslipMatcher>(4, WarmStart::On),
                     std::make_unique<IslipMatcher>(4, WarmStart::On)});
    pairs.push_back(
        {"greedy",
         std::make_unique<ScalarGreedyMatcher>(true, 7, WarmStart::On),
         std::make_unique<SerialGreedyMatcher>(true, 7, WarmStart::On)});
    for (Pair& p : pairs) {
        RequestMatrix req(kChurnPorts);
        Matching a(kChurnPorts);
        Matching b(kChurnPorts);
        obs::Recorder rec_oracle;
        obs::Recorder rec_library;
        Xoshiro256 rng(2026);
        for (int round = 0; round < kChurnRounds; ++round) {
            churnAndFaults(req, rng, round);
            const int passes = round % 10 == 9 ? 2 : 1;
            for (int pass = 0; pass < passes; ++pass) {
                obs::attach(&rec_oracle);
                p.oracle->matchInto(req, a);
                obs::attach(&rec_library);
                p.library->matchInto(req, b);
                obs::detach();
                const std::string ctx = p.name + " round " +
                                        std::to_string(round) + " pass " +
                                        std::to_string(pass);
                ASSERT_EQ(a.pairs(), b.pairs()) << ctx;
#ifndef AN2_OBS_DISABLED
                for (obs::Counter c : {obs::Counter::MatchEdgesReused,
                                       obs::Counter::MatchEdgesRepaired,
                                       obs::Counter::WarmStartFullReuses})
                    ASSERT_EQ(rec_oracle.counter(c), rec_library.counter(c))
                        << ctx << " " << obs::counterName(c);
#endif
            }
        }
#ifndef AN2_OBS_DISABLED
        // The stream reaches both warm tiers.
        EXPECT_GT(rec_library.counter(obs::Counter::MatchEdgesReused), 0)
            << p.name;
        EXPECT_GT(rec_library.counter(obs::Counter::WarmStartFullReuses), 0)
            << p.name;
#endif
    }
}

// With no matrix change between slots the warm tier replays the previous
// matching wholesale; the result must be identical edge for edge.
TEST(WarmStartProperty, UnchangedMatrixReplaysIdentically)
{
    constexpr int kN = 40;
    for (const WarmConfig& cfg : warmConfigs()) {
        auto matcher = cfg.make(WarmStart::On);
        Xoshiro256 rng(9);
        RequestMatrix req = RequestMatrix::bernoulli(kN, 0.3, rng);
        Matching first(kN);
        matcher->matchInto(req, first);
        Matching second(kN);
        matcher->matchInto(req, second);
        for (PortId i = 0; i < kN; ++i)
            EXPECT_EQ(second.outputOf(i), first.outputOf(i))
                << cfg.name << " input " << i;
    }
}

#ifndef AN2_OBS_DISABLED
// The full-reuse tier is observable: an unchanged matrix bumps
// warm_start_full_reuses, and the reuse/repair counters account for the
// seeded edges.
TEST(WarmStartProperty, FullReuseCounterFires)
{
    constexpr int kN = 16;
    obs::RecorderConfig rc;
    rc.ports = kN;
    auto rec = std::make_unique<obs::Recorder>(rc);
    obs::attach(rec.get());
    IslipMatcher matcher(4, WarmStart::On);
    Xoshiro256 rng(5);
    RequestMatrix req = RequestMatrix::bernoulli(kN, 0.5, rng);
    Matching m(kN);
    matcher.matchInto(req, m);
    const int64_t full0 = rec->counter(obs::Counter::WarmStartFullReuses);
    matcher.matchInto(req, m);
    EXPECT_EQ(rec->counter(obs::Counter::WarmStartFullReuses), full0 + 1);
    EXPECT_GE(rec->counter(obs::Counter::MatchEdgesReused), m.size());
    obs::detach();
}
#endif

// Copy-assignment may swap in arbitrary content; the epoch bump on copy
// must keep the warm matcher off the wholesale replay tier, so the
// matching stays legal for the *new* content.
TEST(WarmStartProperty, CopyAssignedMatrixNeverReplaysStale)
{
    constexpr int kN = 32;
    for (const WarmConfig& cfg : warmConfigs()) {
        auto matcher = cfg.make(WarmStart::On);
        Xoshiro256 rng(17);
        RequestMatrix req = RequestMatrix::bernoulli(kN, 0.4, rng);
        Matching m(kN);
        matcher->matchInto(req, m);
        // Overwrite with a much sparser pattern via copy-assignment (the
        // switch's CBR masking path does exactly this every slot).
        RequestMatrix other = RequestMatrix::bernoulli(kN, 0.05, rng);
        req = other;
        matcher->matchInto(req, m);
        EXPECT_TRUE(m.isLegalFor(req)) << cfg.name;
        expectMaximal(req, m, cfg.name);
    }
}

// WarmStart::Off must be bit-for-bit the matcher it always was: same
// matchings, same internal pointer/PRNG evolution, regardless of backend.
TEST(WarmStartRegression, OffMatchesSeedBehavior)
{
    constexpr int kN = 48;
    constexpr int kRounds = 60;
    struct Pair
    {
        std::unique_ptr<Matcher> off;
        std::unique_ptr<Matcher> legacy;
    };
    std::vector<Pair> pairs;
    pairs.push_back({std::make_unique<IslipMatcher>(4, WarmStart::Off),
                     std::make_unique<IslipMatcher>(4)});
    pairs.push_back({std::make_unique<SerialGreedyMatcher>(
                         true, 3, WarmStart::Off),
                     std::make_unique<SerialGreedyMatcher>(true, 3)});
    for (Pair& p : pairs) {
        RequestMatrix req(kN);
        Matching a(kN);
        Matching b(kN);
        Xoshiro256 rng(31);
        for (int round = 0; round < kRounds; ++round) {
            for (int t = 0; t < kN / 2; ++t) {
                auto i = static_cast<PortId>(rng.nextBelow(kN));
                auto j = static_cast<PortId>(rng.nextBelow(kN));
                if (rng.nextBernoulli(0.6))
                    req.increment(i, j);
                else if (req.count(i, j) > 0)
                    req.decrement(i, j);
            }
            p.off->matchInto(req, a);
            p.legacy->matchInto(req, b);
            for (PortId i = 0; i < kN; ++i)
                EXPECT_EQ(a.outputOf(i), b.outputOf(i))
                    << p.legacy->name() << " diverged at round " << round
                    << " input " << i;
        }
    }
}

// reset() drops the remembered matching: the next slot must cold-start
// (observable as: still legal/maximal even if the matrix object moved).
TEST(WarmStartProperty, ResetInvalidatesRememberedMatching)
{
    constexpr int kN = 24;
    for (const WarmConfig& cfg : warmConfigs()) {
        auto matcher = cfg.make(WarmStart::On);
        Xoshiro256 rng(23);
        RequestMatrix req = RequestMatrix::bernoulli(kN, 0.4, rng);
        Matching m(kN);
        matcher->matchInto(req, m);
        matcher->reset();
        RequestMatrix fresh = RequestMatrix::bernoulli(kN, 0.4, rng);
        matcher->matchInto(fresh, m);
        EXPECT_TRUE(m.isLegalFor(fresh)) << cfg.name;
        expectMaximal(fresh, m, cfg.name);
    }
}

}  // namespace
}  // namespace an2
