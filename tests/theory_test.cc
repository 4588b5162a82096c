// Closed-form checks of the simulator. A golden pins the simulator to
// its own earlier output, so a defect present when the golden was
// written stays pinned; a result from queueing theory has no such blind
// spot. Each tolerance comes from the spread of independent replicates
// at the test's own run length.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "an2/harness/aggregate.h"
#include "an2/harness/arch.h"
#include "an2/harness/sweep.h"
#include "an2/sim/traffic.h"

namespace an2 {
namespace {

TEST(TheoryTest, FifoSaturationThroughputMatchesKarolHluchyjMorgan)
{
    // Karol, Hluchyj and Morgan (1987, Table I; the paper's §2.4): with
    // every input saturated and uniform destinations, FIFO input
    // queueing with random contention carries exactly 3/4 of each link
    // at N = 2 and 0.6553 at N = 4, falling to 2 - sqrt(2) as N grows.
    // The tolerance is 2 x the 95% confidence half-width over 8
    // independent replicates of 100 000 slots, plus at N = 4 the table's
    // rounding to four places (5e-5).
    harness::SweepSpec spec;
    spec.name = "fifo_theory";
    spec.workload = "uniform";
    spec.archs = {harness::archByName("FIFO")};
    spec.sizes = {2, 4};
    spec.loads = {1.0};
    spec.replicates = 8;
    spec.base_seed = 1987;
    spec.slots = 100'000;
    spec.warmup = 10'000;
    spec.make_traffic = [](int n, double load, uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
    std::vector<harness::CellSummary> cells =
        harness::aggregate(spec, harness::runSweep(spec, 2));
    ASSERT_EQ(cells.size(), 2u);
    for (const harness::CellSummary& cell : cells) {
        const double theory = cell.size == 2 ? 0.75 : 0.6553;
        const double rounding = cell.size == 2 ? 0.0 : 5e-5;
        const harness::Aggregate& t = cell.throughput;
        EXPECT_EQ(t.n, 8);
        EXPECT_GT(t.ci95, 0.0);
        EXPECT_LE(std::abs(t.mean - theory), 2.0 * t.ci95 + rounding)
            << "N = " << cell.size << ": throughput " << t.mean << " +- "
            << t.ci95 << ", Karol et al. " << theory;
    }
}

TEST(TheoryTest, SaturatedPimOneIterationMatchesClosedForm)
{
    // PIM (paper §3): once every input requests every output, each output
    // grants one of the N inputs uniformly at random, and an input is
    // matched in PIM's first iteration exactly when some output grants
    // it. So one iteration carries 1 - (1 - 1/N)^N of each link, 0.6439
    // at N = 16, tending to 1 - 1/e. Under uniform load 1.0 the backlog
    // grows by about 0.36 cells per input and slot, so after the warmup
    // every VOQ stays busy. The tolerance is 2 x the 95% confidence
    // half-width over 8 independent replicates of 30 000 slots (about
    // 171 000 cells buffered per run at the end).
    constexpr int kN = 16;
    harness::SweepSpec spec;
    spec.name = "pim1_theory";
    spec.workload = "uniform";
    spec.archs = {harness::archByName("PIM(1)")};
    spec.sizes = {kN};
    spec.loads = {1.0};
    spec.replicates = 8;
    spec.base_seed = 1992;
    spec.slots = 30'000;
    spec.warmup = 5'000;
    spec.make_traffic = [](int n, double load, uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
    std::vector<harness::CellSummary> cells =
        harness::aggregate(spec, harness::runSweep(spec, 2));
    ASSERT_EQ(cells.size(), 1u);
    const double theory = 1.0 - std::pow(1.0 - 1.0 / kN, kN);
    const harness::Aggregate& t = cells[0].throughput;
    EXPECT_EQ(t.n, 8);
    EXPECT_GT(t.ci95, 0.0);
    EXPECT_LE(std::abs(t.mean - theory), 2.0 * t.ci95)
        << "throughput " << t.mean << " +- " << t.ci95
        << ", closed form " << theory;
}

}  // namespace
}  // namespace an2
