/**
 * @file
 * Scheduling-rate microbenchmark (paper §3.3, reinterpreted).
 *
 * The AN2 hardware schedules a 16x16 switch in one 424 ns cell time —
 * over 37 million cells per second. This software model cannot match
 * FPGA wiring, but the benchmark quantifies the per-slot cost of each
 * scheduling algorithm and the derived cells/second rate, demonstrating
 * the shape claim: 4-iteration PIM is cheap, near-linear in N^2, and far
 * cheaper than maximum matching.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "an2/matching/hopcroft_karp.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/serial_greedy.h"
#include "an2/matching/statistical.h"

namespace {

using namespace an2;

/** Pre-generate dense request patterns so the PRNG isn't benchmarked.
    Fewer patterns at large N keep the working set in memory bounds. */
std::vector<RequestMatrix>
patterns(int n, double p, int count)
{
    if (n > 64)
        count = 8;
    Xoshiro256 rng(1234);
    std::vector<RequestMatrix> reqs;
    reqs.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        reqs.push_back(RequestMatrix::bernoulli(n, p, rng));
    return reqs;
}

void
reportCellsPerSecond(benchmark::State& state, int64_t matched_total)
{
    state.counters["cells/s"] = benchmark::Counter(
        static_cast<double>(matched_total), benchmark::Counter::kIsRate);
}

template <typename MakeMatcher>
void
runMatcherBench(benchmark::State& state, MakeMatcher make)
{
    const auto n = static_cast<int>(state.range(0));
    auto reqs = patterns(n, 0.75, 64);
    auto matcher = make(n);
    Matching m(n, n);  // reused: the switch hot path calls matchInto
    int64_t matched = 0;
    size_t idx = 0;
    for (auto _ : state) {
        matcher->matchInto(reqs[idx], m);
        benchmark::DoNotOptimize(m.size());
        matched += m.size();
        idx = (idx + 1) % reqs.size();
    }
    reportCellsPerSecond(state, matched);
}

void
BM_Pim4(benchmark::State& state)
{
    runMatcherBench(state, [](int) {
        return std::make_unique<PimMatcher>(
            PimConfig{.iterations = 4, .seed = 7});
    });
}

void
BM_PimComplete(benchmark::State& state)
{
    runMatcherBench(state, [](int) {
        return std::make_unique<PimMatcher>(
            PimConfig{.iterations = 0, .seed = 7});
    });
}

void
BM_Islip4(benchmark::State& state)
{
    runMatcherBench(state,
                    [](int) { return std::make_unique<IslipMatcher>(4); });
}

void
BM_Greedy(benchmark::State& state)
{
    runMatcherBench(state, [](int) {
        return std::make_unique<SerialGreedyMatcher>(true, 7);
    });
}

void
BM_HopcroftKarp(benchmark::State& state)
{
    runMatcherBench(state, [](int) {
        return std::make_unique<HopcroftKarpMatcher>();
    });
}

/**
 * Slot-to-slot churn model for the warm-start rows: one persistent
 * matrix evolves by a few visible-edge flips per "slot" (the temporal
 * locality the switch hot loop exhibits — most queued requests survive
 * from one slot to the next), instead of rotating through independent
 * random patterns that would invalidate every remembered edge.
 */
template <typename MakeMatcher>
void
runChurnBench(benchmark::State& state, MakeMatcher make)
{
    const auto n = static_cast<int>(state.range(0));
    Xoshiro256 rng(1234);
    RequestMatrix req = RequestMatrix::bernoulli(n, 0.75, rng);
    auto matcher = make(n);
    Matching m(n, n);
    Xoshiro256 churn(99);
    const int churn_ops = n / 4 > 4 ? n / 4 : 4;
    int64_t matched = 0;
    for (auto _ : state) {
        for (int t = 0; t < churn_ops; ++t) {
            auto i = static_cast<PortId>(
                churn.nextBelow(static_cast<uint64_t>(n)));
            auto j = static_cast<PortId>(
                churn.nextBelow(static_cast<uint64_t>(n)));
            if (churn.nextBernoulli(0.5))
                req.increment(i, j);
            else if (req.count(i, j) > 0)
                req.decrement(i, j);
        }
        matcher->matchInto(req, m);
        benchmark::DoNotOptimize(m.size());
        matched += m.size();
    }
    reportCellsPerSecond(state, matched);
}

void
BM_Islip4Churn(benchmark::State& state)
{
    // Cold baseline on the churn workload, so the warm delta below is
    // measured on identical inputs.
    runChurnBench(state,
                  [](int) { return std::make_unique<IslipMatcher>(4); });
}

void
BM_Islip4Warm(benchmark::State& state)
{
    runChurnBench(state, [](int) {
        return std::make_unique<IslipMatcher>(4, WarmStart::On);
    });
}

void
BM_GreedyChurn(benchmark::State& state)
{
    runChurnBench(state, [](int) {
        return std::make_unique<SerialGreedyMatcher>(true, 7);
    });
}

void
BM_GreedyWarm(benchmark::State& state)
{
    runChurnBench(state, [](int) {
        return std::make_unique<SerialGreedyMatcher>(true, 7,
                                                     WarmStart::On);
    });
}

void
BM_Statistical2(benchmark::State& state)
{
    runMatcherBench(state, [](int n) {
        Matrix<int> alloc(n, n, 1000 / n);
        StatisticalConfig cfg;
        cfg.units = 1000;
        cfg.rounds = 2;
        cfg.seed = 7;
        return std::make_unique<StatisticalMatcher>(alloc, cfg);
    });
}

// The word-parallel cores run on multi-word masks beyond 64 ports.
BENCHMARK(BM_Pim4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_PimComplete)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Islip4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Greedy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_HopcroftKarp)->Arg(16)->Arg(64);
BENCHMARK(BM_Statistical2)->Arg(16)->Arg(64);

// Warm-start rows (churn model: the matrix evolves slot to slot).
BENCHMARK(BM_Islip4Churn)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_Islip4Warm)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_GreedyChurn)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_GreedyWarm)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
