/**
 * @file
 * Ablation for the §3.3 implementation claims:
 *
 *  1. PRNG quality: "the number of iterations needed by parallel
 *     iterative matching is relatively insensitive to the technique used
 *     to approximate randomness" — compared by running PIM with the
 *     default xoshiro256** engine vs a deliberately weak 16-bit LCG.
 *  2. Accept policy: random vs round-robin accept pointers ("round-robin
 *     or other fair fashion" is what the no-starvation argument needs).
 */
#include <cstdio>

#include "an2/base/stats.h"
#include "an2/sim/traffic.h"
#include "bench_common.h"

namespace {

using namespace an2;
using namespace an2::bench;

void
prngSensitivity()
{
    std::printf("  1) Mean iterations to maximal match (16x16, dense"
                " requests, 20000 patterns):\n");
    std::printf("     %-18s  %10s  %10s\n", "engine", "mean iters",
                "p99 iters");
    for (bool weak : {false, true}) {
        std::unique_ptr<Rng> engine;
        if (weak)
            engine = std::make_unique<WeakLcg>(7);
        else
            engine = std::make_unique<Xoshiro256>(7);
        PimMatcher pim(PimConfig{.iterations = 0}, std::move(engine));
        Xoshiro256 pattern_rng(8);
        RunningStats iters;
        LogHistogram hist;
        for (int t = 0; t < 20'000; ++t) {
            auto req = RequestMatrix::bernoulli(16, 1.0, pattern_rng);
            PimRunStats stats;
            pim.matchDetailed(req, stats, 0);
            iters.add(stats.iterations_run - 1);
            hist.add(stats.iterations_run - 1);
        }
        std::printf("     %-18s  %10.3f  %10lld\n",
                    weak ? "WeakLcg (16-bit)" : "xoshiro256**",
                    iters.mean(),
                    static_cast<long long>(hist.quantile(0.99)));
    }
}

void
acceptPolicyDelay()
{
    std::printf("\n  2) Mean delay (slots) vs load, accept policy"
                " (uniform workload, 16x16):\n");
    std::printf("     %5s  %12s  %12s\n", "load", "random", "round-robin");
    for (double load : {0.80, 0.95, 0.99}) {
        double delay[2];
        int idx = 0;
        for (AcceptPolicy policy :
             {AcceptPolicy::Random, AcceptPolicy::RoundRobin}) {
            InputQueuedSwitch sw({.n = 16}, makePim(4, 21, 1, policy));
            UniformTraffic traffic(16, load, 22);
            SimConfig cfg;
            cfg.slots = 80'000;
            cfg.warmup = 15'000;
            delay[idx++] = runSimulation(sw, traffic, cfg).mean_delay;
        }
        std::printf("     %5.2f  %12.2f  %12.2f\n", load, delay[0],
                    delay[1]);
    }
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Ablation -- randomness source and accept policy (Section 3.3)",
        "Anderson et al. 1992, Section 3.3 implementation discussion");
    prngSensitivity();
    acceptPolicyDelay();
    std::printf("\n  Expected: weak PRNG barely changes iteration counts;"
                " accept policies differ\n  little in delay (round-robin"
                " slightly smooths service).\n");
    return 0;
}
