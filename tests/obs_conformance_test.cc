// Backend conformance for the obs probe layer: the Reference and
// word-parallel matcher cores must report byte-identical per-iteration
// counters and MatchIter event sequences on seeded runs. (The matchings
// themselves are already pinned identical by matcher_conformance_test;
// this suite pins the *instrumentation*.)
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/islip.h"
#include "an2/matching/matcher.h"
#include "an2/matching/pim.h"
#include "an2/matching/request_matrix.h"
#include "an2/matching/serial_greedy.h"
#include "an2/obs/recorder.h"

// With the obs layer compiled out there is nothing to observe.
#ifdef AN2_OBS_DISABLED
#define SKIP_IF_OBS_DISABLED() \
    GTEST_SKIP() << "obs layer compiled out (AN2_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_DISABLED() (void)0
#endif

namespace an2::obs {
namespace {

using MatcherFactory =
    std::function<std::unique_ptr<Matcher>(MatcherBackend)>;

struct NamedFactory
{
    std::string label;
    MatcherFactory make;
};

std::vector<NamedFactory>
factories()
{
    std::vector<NamedFactory> fs;
    fs.push_back({"pim_random", [](MatcherBackend b) {
                      PimConfig cfg;
                      cfg.iterations = 4;
                      cfg.seed = 21;
                      cfg.backend = b;
                      return std::make_unique<PimMatcher>(cfg);
                  }});
    fs.push_back({"pim_complete_rr", [](MatcherBackend b) {
                      PimConfig cfg;
                      cfg.iterations = 0;
                      cfg.accept = AcceptPolicy::RoundRobin;
                      cfg.seed = 22;
                      cfg.backend = b;
                      return std::make_unique<PimMatcher>(cfg);
                  }});
    fs.push_back({"pim_k2", [](MatcherBackend b) {
                      PimConfig cfg;
                      cfg.iterations = 4;
                      cfg.output_capacity = 2;
                      cfg.seed = 24;
                      cfg.backend = b;
                      return std::make_unique<PimMatcher>(cfg);
                  }});
    fs.push_back({"pim_complete_k3_rr", [](MatcherBackend b) {
                      PimConfig cfg;
                      cfg.iterations = 0;
                      cfg.accept = AcceptPolicy::RoundRobin;
                      cfg.output_capacity = 3;
                      cfg.seed = 25;
                      cfg.backend = b;
                      return std::make_unique<PimMatcher>(cfg);
                  }});
    fs.push_back({"islip", [](MatcherBackend b) {
                      return std::make_unique<IslipMatcher>(4, b);
                  }});
    fs.push_back({"greedy_random", [](MatcherBackend b) {
                      return std::make_unique<SerialGreedyMatcher>(true, 23,
                                                                   b);
                  }});
    fs.push_back({"greedy_fixed", [](MatcherBackend b) {
                      return std::make_unique<SerialGreedyMatcher>(false, 0,
                                                                   b);
                  }});
    return fs;
}

struct ObservedRun
{
    std::vector<Event> events;
    std::vector<int64_t> counters;
};

/** Run `make(backend)` over a seeded request-matrix sweep with a fresh
    recorder attached; return everything it observed. */
ObservedRun
observe(const MatcherFactory& make, MatcherBackend backend, int n)
{
    Recorder rec(RecorderConfig{.trace_capacity = 1u << 16});
    attach(&rec);
    auto matcher = make(backend);
    Matching out(n, n);
    Xoshiro256 rng(static_cast<uint64_t>(1000 + n));
    for (double p : {0.05, 0.3, 0.7, 1.0}) {
        for (int t = 0; t < 8; ++t) {
            auto req = RequestMatrix::bernoulli(n, p, rng);
            matcher->matchInto(req, out);
        }
    }
    detach();

    ObservedRun run;
    for (size_t k = 0; k < rec.eventCount(); ++k)
        run.events.push_back(rec.event(k));
    for (int c = 0; c < static_cast<int>(Counter::kCount); ++c)
        run.counters.push_back(rec.counter(static_cast<Counter>(c)));
    return run;
}

void
expectIdenticalObservations(const ObservedRun& ref, const ObservedRun& fast)
{
    for (int c = 0; c < static_cast<int>(Counter::kCount); ++c)
        EXPECT_EQ(ref.counters[static_cast<size_t>(c)],
                  fast.counters[static_cast<size_t>(c)])
            << "counter " << counterName(static_cast<Counter>(c));
    ASSERT_EQ(ref.events.size(), fast.events.size());
    for (size_t k = 0; k < ref.events.size(); ++k) {
        const Event& a = ref.events[k];
        const Event& b = fast.events[k];
        EXPECT_EQ(a.slot, b.slot) << "event " << k;
        EXPECT_EQ(a.type, b.type) << "event " << k;
        EXPECT_EQ(a.alg, b.alg) << "event " << k;
        EXPECT_EQ(a.iter, b.iter) << "event " << k;
        EXPECT_EQ(a.a, b.a) << "event " << k << " (requests)";
        EXPECT_EQ(a.b, b.b) << "event " << k << " (grants)";
        EXPECT_EQ(a.c, b.c) << "event " << k << " (accepts)";
        EXPECT_EQ(a.d, b.d) << "event " << k << " (matched)";
    }
}

class ObsBackendConformanceTest
    : public ::testing::TestWithParam<::testing::tuple<int, int>>
{
};

TEST_P(ObsBackendConformanceTest, ReferenceAndWordParallelCountersMatch)
{
    SKIP_IF_OBS_DISABLED();
    int fi = ::testing::get<0>(GetParam());
    int n = ::testing::get<1>(GetParam());
    const std::vector<NamedFactory> fs = factories();
    const NamedFactory& f = fs[static_cast<size_t>(fi)];
    ObservedRun ref = observe(f.make, MatcherBackend::Reference, n);
    ObservedRun fast = observe(f.make, MatcherBackend::Auto, n);
    ASSERT_GT(ref.events.size(), 0u) << f.label;
    expectIdenticalObservations(ref, fast);
}

INSTANTIATE_TEST_SUITE_P(
    AllMatchers, ObsBackendConformanceTest,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(4, 16, 80)));

}  // namespace
}  // namespace an2::obs
