// Conformance property suite: every scheduling algorithm in an2sim must
// satisfy the same contract — legal matchings, respected capacities,
// graceful handling of degenerate patterns — across a common sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "an2/matching/fill_in.h"
#include "an2/matching/hopcroft_karp.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/serial_greedy.h"
#include "an2/matching/statistical.h"
#include "scalar_matchers.h"

namespace an2 {
namespace {

using MatcherFactory = std::function<std::unique_ptr<Matcher>(int n)>;

struct NamedFactory
{
    std::string label;
    MatcherFactory make;
};

std::vector<NamedFactory>
allFactories()
{
    std::vector<NamedFactory> fs;
    fs.push_back({"pim4", [](int) {
                      return std::make_unique<PimMatcher>(
                          PimConfig{.iterations = 4, .seed = 1});
                  }});
    fs.push_back({"pim_complete", [](int) {
                      return std::make_unique<PimMatcher>(
                          PimConfig{.iterations = 0, .seed = 2});
                  }});
    fs.push_back({"pim_rr", [](int) {
                      PimConfig cfg;
                      cfg.iterations = 4;
                      cfg.accept = AcceptPolicy::RoundRobin;
                      cfg.seed = 3;
                      return std::make_unique<PimMatcher>(cfg);
                  }});
    fs.push_back({"islip", [](int) {
                      return std::make_unique<IslipMatcher>(4);
                  }});
    fs.push_back({"greedy_random", [](int) {
                      return std::make_unique<SerialGreedyMatcher>(true, 4);
                  }});
    fs.push_back({"greedy_fixed", [](int) {
                      return std::make_unique<SerialGreedyMatcher>(false);
                  }});
    fs.push_back({"hopcroft_karp", [](int) {
                      return std::make_unique<HopcroftKarpMatcher>();
                  }});
    fs.push_back({"statistical", [](int n) {
                      Matrix<int> alloc(n, n, 1000 / n);
                      StatisticalConfig cfg;
                      cfg.units = 1000;
                      cfg.rounds = 2;
                      cfg.seed = 5;
                      return std::make_unique<StatisticalMatcher>(alloc,
                                                                  cfg);
                  }});
    fs.push_back({"stat_plus_pim", [](int n) {
                      Matrix<int> alloc(n, n, 1000 / n);
                      StatisticalConfig scfg;
                      scfg.units = 1000;
                      scfg.seed = 7;
                      PimConfig pcfg;
                      pcfg.iterations = 4;
                      pcfg.seed = 8;
                      return std::make_unique<FillInMatcher>(
                          std::make_unique<StatisticalMatcher>(alloc, scfg),
                          std::make_unique<PimMatcher>(pcfg));
                  }});
    return fs;
}

class MatcherConformanceTest
    : public ::testing::TestWithParam<::testing::tuple<int, int>>
{
  protected:
    int factoryIndex() const { return ::testing::get<0>(GetParam()); }
    int size() const { return ::testing::get<1>(GetParam()); }

    std::unique_ptr<Matcher>
    makeMatcher()
    {
        return allFactories()[static_cast<size_t>(factoryIndex())].make(
            size());
    }
};

/** Check basic sanity of a matching against its request matrix. */
void
expectWellFormed(const Matching& m, const RequestMatrix& req)
{
    EXPECT_TRUE(m.isLegalFor(req));
    std::vector<int> out_used(static_cast<size_t>(req.numOutputs()), 0);
    for (auto [i, j] : m.pairs()) {
        EXPECT_GE(i, 0);
        EXPECT_LT(i, req.numInputs());
        ++out_used[static_cast<size_t>(j)];
    }
    for (int u : out_used)
        EXPECT_LE(u, 1);
}

TEST_P(MatcherConformanceTest, LegalAcrossDensities)
{
    auto matcher = makeMatcher();
    Xoshiro256 rng(static_cast<uint64_t>(7 * size() + factoryIndex()));
    for (double p : {0.05, 0.3, 0.7, 1.0}) {
        for (int t = 0; t < 10; ++t) {
            auto req = RequestMatrix::bernoulli(size(), p, rng);
            expectWellFormed(matcher->match(req), req);
        }
    }
}

TEST_P(MatcherConformanceTest, EmptyRequestsYieldEmptyMatch)
{
    auto matcher = makeMatcher();
    RequestMatrix req(size());
    EXPECT_EQ(matcher->match(req).size(), 0);
}

TEST_P(MatcherConformanceTest, PermutationPatternHandled)
{
    auto matcher = makeMatcher();
    RequestMatrix req(size());
    for (PortId i = 0; i < size(); ++i)
        req.set(i, (i + 1) % size(), 1);
    Matching m = matcher->match(req);
    expectWellFormed(m, req);
    // All non-statistical matchers must find the full permutation; the
    // statistical matcher intentionally idles ~28% of slots.
    std::string label = allFactories()[static_cast<size_t>(factoryIndex())]
                            .label;
    if (label != "statistical") {
        EXPECT_EQ(m.size(), size());
    }
}

TEST_P(MatcherConformanceTest, SingleColumnContention)
{
    // Everyone wants output 0: exactly one winner per slot.
    auto matcher = makeMatcher();
    RequestMatrix req(size());
    for (PortId i = 0; i < size(); ++i)
        req.set(i, 0, 1);
    for (int t = 0; t < 20; ++t) {
        Matching m = matcher->match(req);
        expectWellFormed(m, req);
        EXPECT_LE(m.size(), 1);
    }
}

TEST_P(MatcherConformanceTest, SingleRowFanOut)
{
    // One input wants everything: at most one accept per slot.
    auto matcher = makeMatcher();
    RequestMatrix req(size());
    for (PortId j = 0; j < size(); ++j)
        req.set(0, j, 1);
    for (int t = 0; t < 20; ++t) {
        Matching m = matcher->match(req);
        expectWellFormed(m, req);
        EXPECT_LE(m.size(), 1);
    }
}

TEST_P(MatcherConformanceTest, RepeatedCallsStayLegal)
{
    // State carried across slots (pointers, PRNG) must never corrupt
    // legality, including when the pattern changes every slot.
    auto matcher = makeMatcher();
    Xoshiro256 rng(static_cast<uint64_t>(13 + factoryIndex()));
    for (int t = 0; t < 200; ++t) {
        auto req = RequestMatrix::bernoulli(size(),
                                            0.1 + 0.8 * rng.nextDouble(),
                                            rng);
        expectWellFormed(matcher->match(req), req);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMatchers, MatcherConformanceTest,
    ::testing::Combine(::testing::Range(0, 9),  // factory index
                       ::testing::Values(2, 5, 8, 16, 80)),
    [](const ::testing::TestParamInfo<::testing::tuple<int, int>>& info) {
        return allFactories()[static_cast<size_t>(
                                  ::testing::get<0>(info.param))]
                   .label +
               "_n" + std::to_string(::testing::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Backend equivalence: the library's word-parallel matchers must be
// byte-identical to the scalar oracles of scalar_matchers.h — same
// matchings from the same seeds — for every deterministic-given-the-draws
// algorithm (PIM consumes one PRNG draw per decision in the same order;
// iSLIP and fixed-order greedy draw nothing).
// ---------------------------------------------------------------------------

void
expectIdenticalMatchings(const Matching& a, const Matching& b,
                         const std::string& context)
{
    ASSERT_EQ(a.numInputs(), b.numInputs()) << context;
    EXPECT_EQ(a.size(), b.size()) << context;
    for (PortId i = 0; i < a.numInputs(); ++i)
        EXPECT_EQ(a.outputOf(i), b.outputOf(i)) << context << " input " << i;
}

/** Run `trials` random patterns through both matchers, expecting
    byte-identical matchings from both match() and matchInto(). */
void
expectBackendsAgree(Matcher& reference, Matcher& fast, int n, int trials,
                    uint64_t stream_seed)
{
    Xoshiro256 pattern_rng(stream_seed);
    Matching buf(n, n);
    for (int t = 0; t < trials; ++t) {
        double p = 0.05 + 0.9 * pattern_rng.nextDouble();
        auto req = RequestMatrix::bernoulli(n, p, pattern_rng);
        Matching ref = reference.match(req);
        // Alternate the fast entry points so both are pinned.
        if (t % 2 == 0) {
            fast.matchInto(req, buf);
            expectIdenticalMatchings(ref, buf,
                                     "n=" + std::to_string(n) + " t=" +
                                         std::to_string(t));
        } else {
            expectIdenticalMatchings(ref, fast.match(req),
                                     "n=" + std::to_string(n) + " t=" +
                                         std::to_string(t));
        }
    }
}

TEST(MatcherBackendEquivalence, PimRandomAccept)
{
    for (int n : {3, 16, 64, 65, 100, 256}) {
        ScalarPimMatcher ref(PimConfig{.iterations = 4, .seed = 11});
        PimMatcher fast(PimConfig{.iterations = 4, .seed = 11});
        expectBackendsAgree(ref, fast, n, n > 64 ? 40 : 150,
                            static_cast<uint64_t>(1000 + n));
    }
}

TEST(MatcherBackendEquivalence, PimRoundRobinAccept)
{
    for (int n : {5, 16, 64, 100}) {
        PimConfig cfg{.iterations = 4, .seed = 21};
        cfg.accept = AcceptPolicy::RoundRobin;
        ScalarPimMatcher ref(cfg);
        PimMatcher fast(cfg);
        expectBackendsAgree(ref, fast, n, 100,
                            static_cast<uint64_t>(2000 + n));
    }
}

TEST(MatcherBackendEquivalence, PimToCompletion)
{
    for (int n : {8, 64, 128}) {
        ScalarPimMatcher ref(PimConfig{.iterations = 0, .seed = 31});
        PimMatcher fast(PimConfig{.iterations = 0, .seed = 31});
        expectBackendsAgree(ref, fast, n, 60,
                            static_cast<uint64_t>(3000 + n));
    }
}

TEST(MatcherBackendEquivalence, Islip)
{
    for (int n : {3, 16, 64, 65, 100, 256}) {
        ScalarIslipMatcher ref(4);
        IslipMatcher fast(4);
        expectBackendsAgree(ref, fast, n, n > 64 ? 40 : 150,
                            static_cast<uint64_t>(4000 + n));
    }
}

TEST(MatcherBackendEquivalence, GreedyRandomized)
{
    for (int n : {3, 16, 64, 100, 256}) {
        ScalarGreedyMatcher ref(true, 41);
        SerialGreedyMatcher fast(true, 41);
        expectBackendsAgree(ref, fast, n, n > 64 ? 40 : 150,
                            static_cast<uint64_t>(5000 + n));
    }
}

TEST(MatcherBackendEquivalence, GreedyFixedOrder)
{
    for (int n : {3, 16, 64, 100}) {
        ScalarGreedyMatcher ref(false, 1);
        SerialGreedyMatcher fast(false, 1);
        expectBackendsAgree(ref, fast, n, 100,
                            static_cast<uint64_t>(6000 + n));
    }
}

/** Kill each input and each output independently with probability p,
    as the switch does: a dead port's wires drop. */
void
killRandomPorts(RequestMatrix& req, double p, Rng& rng)
{
    for (PortId q = 0; q < req.numInputs(); ++q) {
        if (rng.nextDouble() < p)
            req.clearRow(q);
        if (rng.nextDouble() < p)
            req.clearColumn(q);
    }
}

TEST(MatcherBackendEquivalence, PimOutputCapacity)
{
    // The replicated fabric (k grants per output) replays the scalar
    // core's shuffle draw for draw, so the cores agree pair for pair at
    // every capacity, iteration budget and accept policy, masks included.
    for (int k : {2, 3, 4}) {
        for (int iterations : {0, 1, 4}) {
            for (AcceptPolicy accept :
                 {AcceptPolicy::Random, AcceptPolicy::RoundRobin}) {
                for (int n : {3, 16, 65, 130}) {
                    PimConfig cfg{.iterations = iterations,
                                  .accept = accept,
                                  .output_capacity = k,
                                  .seed = static_cast<uint64_t>(50 + k)};
                    ScalarPimMatcher ref(cfg);
                    PimMatcher fast(cfg);
                    Xoshiro256 rng(static_cast<uint64_t>(
                        8000 + 97 * n + 13 * k + iterations));
                    Matching buf(n, n);
                    for (int t = 0; t < 12; ++t) {
                        double p = 0.05 + 0.9 * rng.nextDouble();
                        auto req = RequestMatrix::bernoulli(n, p, rng);
                        if (t % 3 == 2)
                            killRandomPorts(req, 0.2, rng);
                        Matching a = ref.match(req);
                        fast.matchInto(req, buf);
                        ASSERT_TRUE(a.isLegalFor(req));
                        expectIdenticalMatchings(
                            a, buf,
                            "k=" + std::to_string(k) +
                                " it=" + std::to_string(iterations) +
                                " rr=" +
                                std::to_string(accept ==
                                               AcceptPolicy::RoundRobin) +
                                " n=" + std::to_string(n) +
                                " t=" + std::to_string(t));
                    }
                }
            }
        }
    }
}

/**
 * Hold one PIM kernel instance, run directly, to the scalar oracle draw
 * for draw: one-word and multi-word sizes (1, 8, 16, 63, 64, 65, 200
 * ports), random and round-robin accept, capacities 1 and 2, a 4-round
 * budget and rounds to completion, and every third pattern with dead
 * ports.
 */
void
expectKernelMatchesScalar(const PimKernel& kernel)
{
    for (int n : {1, 8, 16, 63, 64, 65, 200}) {
        for (AcceptPolicy accept :
             {AcceptPolicy::Random, AcceptPolicy::RoundRobin}) {
            for (int k : {1, 2}) {
                for (int iterations : {4, 0}) {
                    const PimConfig cfg{
                        .iterations = iterations,
                        .accept = accept,
                        .output_capacity = k,
                        .seed = static_cast<uint64_t>(90 + n + k)};
                    ScalarPimMatcher ref(cfg);
                    PimMatcher fast(cfg, kernel);
                    ASSERT_EQ(&fast.kernel(), &kernel);
                    Xoshiro256 rng(static_cast<uint64_t>(
                        9500 + 31 * n + 7 * k + iterations));
                    Matching buf(n, n);
                    for (int t = 0; t < 15; ++t) {
                        const std::string at =
                            std::string(kernel.name) +
                            " n=" + std::to_string(n) + " rr=" +
                            std::to_string(accept ==
                                           AcceptPolicy::RoundRobin) +
                            " k=" + std::to_string(k) +
                            " it=" + std::to_string(iterations) +
                            " t=" + std::to_string(t);
                        auto req = RequestMatrix::bernoulli(
                            n, 0.05 + 0.9 * rng.nextDouble(), rng);
                        if (t % 3 == 2)
                            killRandomPorts(req, 0.2, rng);
                        Matching a = ref.match(req);
                        fast.matchInto(req, buf);
                        ASSERT_TRUE(buf.isLegalFor(req)) << at;
                        expectIdenticalMatchings(a, buf, at);
                    }
                }
            }
        }
    }
}

TEST(MatcherBackendEquivalence, PimPortableKernel)
{
    expectKernelMatchesScalar(pimPortableKernel());
}

TEST(MatcherBackendEquivalence, PimHardwareKernel)
{
    const PimKernel* kernel = pimHardwareKernel();
    if (kernel == nullptr)
        GTEST_SKIP() << "no popcnt+bmi2 PIM kernel: this CPU lacks popcnt "
                        "or BMI2, or the build is not x86-64 GCC";
    expectKernelMatchesScalar(*kernel);
}

TEST(MatcherBackendEquivalence, BeyondOneThousandTwentyFourPorts)
{
    // The word-parallel cores have no port limit: at 1100 ports (18
    // mask words, the last one partial) they still agree with the
    // scalar oracles.
    constexpr int kN = 1100;
    {
        ScalarPimMatcher ref(PimConfig{.iterations = 4, .seed = 61});
        PimMatcher fast(PimConfig{.iterations = 4, .seed = 61});
        expectBackendsAgree(ref, fast, kN, 2, 9100);
    }
    {
        ScalarIslipMatcher ref(4);
        IslipMatcher fast(4);
        expectBackendsAgree(ref, fast, kN, 2, 9200);
    }
    {
        ScalarGreedyMatcher ref(true, 63);
        SerialGreedyMatcher fast(true, 63);
        expectBackendsAgree(ref, fast, kN, 2, 9300);
    }
}

/** A random allocation within an X-unit budget per row and column, with
    about a third of the pairs left unbooked. */
Matrix<int>
randomAllocation(int n, int units, Rng& rng)
{
    Matrix<int> alloc(n, n, 0);
    for (PortId i = 0; i < n; ++i) {
        for (PortId j = 0; j < n; ++j) {
            const int slack = std::min(units - alloc.rowSum(i),
                                       units - alloc.colSum(j));
            if (rng.nextDouble() < 0.67)
                alloc(i, j) = static_cast<int>(rng.nextBelow(
                    static_cast<uint64_t>(std::min(slack, 2 * units / n)) +
                    1));
        }
    }
    return alloc;
}

TEST(MatcherBackendEquivalence, Statistical)
{
    // The library's statistical matcher computes into the caller's
    // Matching from reserved scratch; the oracle is the per-call form.
    // From equal allocations and seeds both must take the same draws, so
    // every match() (random requests, random dead ports) and every
    // matchAllocated() agrees pair for pair, across allocation changes.
    constexpr int kUnits = 1000;
    for (int rounds : {1, 2}) {
        for (int n : {4, 16, 64}) {
            const std::string context = "rounds=" + std::to_string(rounds) +
                                        " n=" + std::to_string(n);
            Xoshiro256 rng(static_cast<uint64_t>(9400 + 10 * n + rounds));
            Matrix<int> alloc = randomAllocation(n, kUnits, rng);
            const StatisticalConfig cfg{
                .units = kUnits,
                .rounds = rounds,
                .seed = static_cast<uint64_t>(71 + n)};
            ScalarStatisticalMatcher ref(alloc, cfg);
            StatisticalMatcher fast(alloc, cfg);
            Matching buf(n, n);
            for (int t = 0; t < 120; ++t) {
                const std::string at = context + " t=" + std::to_string(t);
                if (t % 7 == 3) {
                    // Re-book one pair within its row's and column's
                    // remaining budget.
                    auto i = static_cast<PortId>(
                        rng.nextBelow(static_cast<uint64_t>(n)));
                    auto j = static_cast<PortId>(
                        rng.nextBelow(static_cast<uint64_t>(n)));
                    const int slack =
                        std::min(kUnits - alloc.rowSum(i),
                                 kUnits - alloc.colSum(j)) +
                        alloc(i, j);
                    alloc(i, j) = static_cast<int>(
                        rng.nextBelow(static_cast<uint64_t>(slack) + 1));
                    ref.setAllocation(i, j, alloc(i, j));
                    fast.setAllocation(i, j, alloc(i, j));
                }
                if (t % 3 == 0) {
                    expectIdenticalMatchings(ref.matchAllocated(),
                                             fast.matchAllocated(),
                                             at + " allocated");
                    continue;
                }
                auto req = RequestMatrix::bernoulli(
                    n, 0.2 + 0.7 * rng.nextDouble(), rng);
                if (t % 2 == 0)
                    killRandomPorts(req, 0.2, rng);
                Matching a = ref.match(req);
                ASSERT_TRUE(a.isLegalFor(req)) << at;
                // Alternate the entry points so both are pinned.
                if (t % 3 == 1) {
                    fast.matchInto(req, buf);
                    expectIdenticalMatchings(a, buf, at);
                } else {
                    expectIdenticalMatchings(a, fast.match(req), at);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Degenerate request matrices with dead ports. The switch drops a dead
// port's wires from both views (has() and the row/column bitmasks) and
// raises them again at revival, so every matcher, scalar oracle or
// library core, must behave identically: never grant a dead port, and
// serve its requests again once it revives. Exercised for the three core
// algorithms (PIM, iSLIP, serial greedy) in both forms, and, in the cases
// that expect no grant at all or only legal ones, for maximum matching,
// statistical matching and its PIM fill-in too.
// ---------------------------------------------------------------------------

/** The scalar oracles ("_ref"), built from the same seeds as
    wordParallelFactories(). */
std::vector<NamedFactory>
oracleFactories()
{
    std::vector<NamedFactory> fs;
    fs.push_back({"pim_ref", [](int) {
                      return std::make_unique<ScalarPimMatcher>(
                          PimConfig{.iterations = 4, .seed = 17});
                  }});
    fs.push_back({"islip_ref", [](int) {
                      return std::make_unique<ScalarIslipMatcher>(4);
                  }});
    fs.push_back({"greedy_ref", [](int) {
                      return std::make_unique<ScalarGreedyMatcher>(true, 23);
                  }});
    return fs;
}

/** The library's word-parallel matchers ("_wp"). */
std::vector<NamedFactory>
wordParallelFactories()
{
    std::vector<NamedFactory> fs;
    fs.push_back({"pim_wp", [](int) {
                      return std::make_unique<PimMatcher>(
                          PimConfig{.iterations = 4, .seed = 17});
                  }});
    fs.push_back({"islip_wp", [](int) {
                      return std::make_unique<IslipMatcher>(4);
                  }});
    fs.push_back({"greedy_wp", [](int) {
                      return std::make_unique<SerialGreedyMatcher>(true, 23);
                  }});
    return fs;
}

std::vector<NamedFactory>
allBackendFactories()
{
    auto fs = oracleFactories();
    auto wp = wordParallelFactories();
    fs.insert(fs.end(), wp.begin(), wp.end());
    return fs;
}

/** The matchers with one form only: maximum matching, statistical
    matching and its PIM fill-in, from allFactories(). */
std::vector<NamedFactory>
singleFormFactories()
{
    std::vector<NamedFactory> fs;
    for (NamedFactory& f : allFactories())
        if (f.label == "hopcroft_karp" || f.label == "statistical" ||
            f.label == "stat_plus_pim")
            fs.push_back(std::move(f));
    return fs;
}

/** Every matcher the dead-port cases run. */
std::vector<NamedFactory>
maskedFactories()
{
    auto fs = allBackendFactories();
    auto single = singleFormFactories();
    fs.insert(fs.end(), single.begin(), single.end());
    return fs;
}

/** Fully populated n x n request matrix (every pair has one cell). */
RequestMatrix
fullMatrix(int n)
{
    RequestMatrix req(n);
    for (PortId i = 0; i < n; ++i)
        for (PortId j = 0; j < n; ++j)
            req.set(i, j, 1);
    return req;
}

TEST(MaskedMatcherConformance, AllPortsDeadYieldsEmptyMatch)
{
    for (int n : {4, 16, 80}) {
        RequestMatrix req = fullMatrix(n);
        for (PortId p = 0; p < n; ++p) {
            req.clearRow(p);
            req.clearColumn(p);
        }
        EXPECT_EQ(req.numEdges(), 0);
        for (const NamedFactory& f : maskedFactories()) {
            auto m = f.make(n)->match(req);
            EXPECT_EQ(m.size(), 0) << f.label << " n=" << n;
        }
    }
}

TEST(MaskedMatcherConformance, SingleLivePairIsTheOnlyGrant)
{
    // Kill everything except input 2 / output 5: the sole remaining
    // request (2,5) is the only legal grant, and every matcher must
    // find it (the graph is a single edge, so any maximal or greedy
    // pass takes it).
    for (int n : {8, 80}) {
        RequestMatrix req = fullMatrix(n);
        for (PortId p = 0; p < n; ++p) {
            if (p != 2)
                req.clearRow(p);
            if (p != 5)
                req.clearColumn(p);
        }
        EXPECT_EQ(req.numEdges(), 1);
        for (const NamedFactory& f : allBackendFactories()) {
            auto m = f.make(n)->match(req);
            ASSERT_EQ(m.size(), 1) << f.label << " n=" << n;
            EXPECT_EQ(m.outputOf(2), 5) << f.label << " n=" << n;
            EXPECT_TRUE(m.isLegalFor(req)) << f.label << " n=" << n;
        }
    }
}

TEST(MaskedMatcherConformance, MaskFlipMidSlotNeverGrantsDeadPorts)
{
    // Kill and revive ports between match() calls on the same matrix
    // and the same (stateful) matcher instances, as the switch does:
    // a dying port's wires drop and a reviving port's rise again. Each
    // call must be legal for the wires in force at that moment.
    for (int n : {8, 64}) {
        RequestMatrix req = fullMatrix(n);
        for (const NamedFactory& f : allBackendFactories()) {
            auto matcher = f.make(n);

            Matching before = matcher->match(req);
            EXPECT_TRUE(before.isLegalFor(req)) << f.label << " n=" << n;
            EXPECT_GE(before.size(), 1) << f.label << " n=" << n;
            EXPECT_EQ(req.numEdges(), n * n);

            req.clearRow(1);
            req.clearColumn(3);
            EXPECT_EQ(req.numEdges(), (n - 1) * (n - 1));
            Matching during = matcher->match(req);
            // isLegalFor consults has(), and a dead port has no wires,
            // so this already proves no dead port was granted; the
            // explicit checks below document the contract.
            EXPECT_TRUE(during.isLegalFor(req)) << f.label << " n=" << n;
            EXPECT_EQ(during.outputOf(1), kNoPort) << f.label;
            for (auto [i, j] : during.pairs())
                EXPECT_NE(j, 3) << f.label << " input " << i;
            EXPECT_GE(during.size(), 1) << f.label << " n=" << n;
            EXPECT_LE(during.size(), n - 1) << f.label << " n=" << n;

            for (PortId p = 0; p < n; ++p) {
                req.set(1, p, true);
                req.set(p, 3, true);
            }
            EXPECT_EQ(req.numEdges(), n * n);
            Matching after = matcher->match(req);
            EXPECT_TRUE(after.isLegalFor(req)) << f.label << " n=" << n;
            EXPECT_GE(after.size(), 1) << f.label << " n=" << n;
        }
    }
}

TEST(MaskedMatcherConformance, RandomMasksNeverGrantDeadPorts)
{
    // Each (stateful) matcher sees random requests with random dead
    // ports, call after call. isLegalFor consults has(), and a dead
    // port has no wires, so a legal matching grants no dead port.
    for (int n : {16, 100}) {
        for (const NamedFactory& f : maskedFactories()) {
            auto matcher = f.make(n);
            Xoshiro256 rng(static_cast<uint64_t>(7500 + n));
            for (int t = 0; t < 40; ++t) {
                auto req = RequestMatrix::bernoulli(n, 0.4, rng);
                killRandomPorts(req, 0.25, rng);
                EXPECT_TRUE(matcher->match(req).isLegalFor(req))
                    << f.label << " n=" << n << " t=" << t;
            }
        }
    }
}

TEST(MaskedMatcherConformance, BackendsAgreeUnderRandomMasks)
{
    // The word-parallel cores consume the row/column bitmasks; the
    // scalar oracles consume has(). Same draws, same dead ports ->
    // byte-identical matchings, exactly as in the equivalence suite
    // without dead ports.
    for (int n : {16, 100}) {
        auto refs = oracleFactories();
        auto wps = wordParallelFactories();
        ASSERT_EQ(refs.size(), wps.size());
        for (size_t k = 0; k < refs.size(); ++k) {
            auto ref = refs[k].make(n);
            auto wp = wps[k].make(n);
            Xoshiro256 rng(static_cast<uint64_t>(7000 + n + 31 * k));
            for (int t = 0; t < 40; ++t) {
                auto req = RequestMatrix::bernoulli(n, 0.4, rng);
                killRandomPorts(req, 0.25, rng);
                Matching a = ref->match(req);
                Matching b = wp->match(req);
                EXPECT_TRUE(a.isLegalFor(req))
                    << refs[k].label << " n=" << n << " t=" << t;
                expectIdenticalMatchings(a, b,
                                         refs[k].label + " masked n=" +
                                             std::to_string(n) + " t=" +
                                             std::to_string(t));
            }
        }
    }
}

}  // namespace
}  // namespace an2
