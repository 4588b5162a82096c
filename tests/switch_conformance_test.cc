// Conformance property suite for every switch architecture: cell
// conservation, per-flow FIFO order, no cell fabrication, and
// work-conservation sanity, across workloads. Uses only the public API
// via the umbrella header (doubling as an include-sanity test).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "an2/an2.h"

namespace an2 {
namespace {

using SwitchFactory =
    std::function<std::unique_ptr<InputQueuedSwitch>(int n)>;

struct NamedSwitch
{
    std::string label;
    SwitchFactory make;
};

std::vector<NamedSwitch>
allSwitches()
{
    // (label, registry name, seed); iSLIP, Maximum and OutputQueued
    // draw no random numbers and ignore the seed.
    const std::tuple<const char*, const char*, uint64_t> kNamed[] = {
        {"fifo", "FIFO", 11},
        {"fifo_windowed", "FIFO(window=4,rounds=4)", 12},
        {"oq", "OutputQueued", 0},
        {"iq_pim", "PIM(4)", 13},
        {"iq_pim_speedup2", "PIM(4,k=2)", 14},
        {"iq_pim_pipelined", "PIM(4)-pipelined", 17},
        {"iq_islip", "iSLIP(4)", 0},
        {"iq_maximum", "Maximum", 0},
        {"cioq_s2_strict", "CIOQ(S=2,strict)", 18},
        {"cioq_s3_wrr", "CIOQ(S=3,wrr)", 19},
    };
    std::vector<NamedSwitch> fs;
    for (const auto& [label, name, seed] : kNamed)
        fs.push_back({label, [arch = harness::archByName(name),
                              s = seed](int n) { return arch.make(n, s); }});
    // Two forms no name denotes: statistical matching with PIM fill-in,
    // and the virtual clock, which needs its default rate set.
    fs.push_back({"iq_stat_fillin", [](int n) {
                      Matrix<int> alloc(n, n, 1000 / n);
                      StatisticalConfig scfg;
                      scfg.units = 1000;
                      scfg.seed = 15;
                      PimConfig pcfg;
                      pcfg.iterations = 4;
                      pcfg.seed = 16;
                      return std::make_unique<InputQueuedSwitch>(
                          IqSwitchConfig{.n = n},
                          std::make_unique<FillInMatcher>(
                              std::make_unique<StatisticalMatcher>(alloc,
                                                                   scfg),
                              std::make_unique<PimMatcher>(pcfg)));
                  }});
    fs.push_back({"virtual_clock", [](int n) {
                      auto sw = std::make_unique<InputQueuedSwitch>(
                          IqSwitchConfig{
                              .n = n,
                              .service = ServiceDiscipline::VirtualClock});
                      sw->setDefaultRate(0.1);
                      return sw;
                  }});
    return fs;
}

std::unique_ptr<TrafficGenerator>
makeWorkload(const std::string& kind, int n, double load, uint64_t seed)
{
    if (kind == "uniform")
        return std::make_unique<UniformTraffic>(n, load, seed);
    if (kind == "bursty")
        return std::make_unique<BurstyTraffic>(n, std::min(load, 0.95),
                                               8.0, seed);
    if (kind == "periodic")
        return std::make_unique<PeriodicBurstTraffic>(n, load, seed, 16);
    AN2_PANIC("unknown workload " << kind);
}

using Param = ::testing::tuple<int, std::string>;

class SwitchConformanceTest : public ::testing::TestWithParam<Param>
{
  protected:
    std::unique_ptr<InputQueuedSwitch>
    makeSwitch(int n)
    {
        return allSwitches()[static_cast<size_t>(
                                 ::testing::get<0>(GetParam()))]
            .make(n);
    }

    std::string workload() const { return ::testing::get<1>(GetParam()); }
};

TEST_P(SwitchConformanceTest, ConservesCellsAndPreservesFlowOrder)
{
    constexpr int kN = 8;
    auto sw = makeSwitch(kN);
    auto traffic = makeWorkload(workload(), kN, 0.7, 21);
    std::map<FlowId, int64_t> last_seq;
    SimConfig cfg;
    cfg.slots = 8'000;
    cfg.warmup = 1'000;
    cfg.on_delivered = [&](const Cell& c, SlotTime) {
        auto [it, inserted] = last_seq.try_emplace(c.flow, -1);
        EXPECT_GT(c.seq, it->second)
            << "flow " << c.flow << " re-ordered";
        it->second = c.seq;
    };
    // runSimulation() itself asserts conservation at exit.
    SimResult res = runSimulation(*sw, *traffic, cfg);
    EXPECT_GT(res.delivered, 0);
    EXPECT_LE(res.throughput, 1.0 + 1e-9);
}

TEST_P(SwitchConformanceTest, DrainsCompletelyAfterArrivalsStop)
{
    constexpr int kN = 4;
    auto sw = makeSwitch(kN);
    auto traffic = makeWorkload(workload(), kN, 0.5, 22);
    std::vector<Cell> arrivals;
    for (SlotTime slot = 0; slot < 500; ++slot) {
        arrivals.clear();
        traffic->generate(slot, arrivals);
        for (const Cell& c : arrivals)
            sw->acceptCell(c);
        sw->runSlot(slot);
    }
    // No new arrivals: every buffered cell must eventually leave.
    SlotTime slot = 500;
    int guard = 100'000;
    while (sw->bufferedCells() > 0 && guard-- > 0)
        sw->runSlot(slot++);
    EXPECT_EQ(sw->bufferedCells(), 0) << "switch failed to drain";
}

TEST(SwitchConstructionTest, NegativeSizeRejected)
{
    // A bad size is a UsageError from every architecture, raised before
    // any table is sized from it (n = 0 is left out: the iq_stat_fillin
    // factory divides by n).
    for (const NamedSwitch& f : allSwitches())
        EXPECT_THROW(f.make(-1), UsageError) << f.label;
}

TEST_P(SwitchConformanceTest, IdleSwitchStaysIdle)
{
    auto sw = makeSwitch(4);
    for (SlotTime slot = 0; slot < 32; ++slot)
        EXPECT_TRUE(sw->runSlot(slot).empty());
    EXPECT_EQ(sw->bufferedCells(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSwitches, SwitchConformanceTest,
    ::testing::Combine(::testing::Range(0, 12),
                       ::testing::Values(std::string("uniform"),
                                         std::string("bursty"),
                                         std::string("periodic"))),
    [](const ::testing::TestParamInfo<Param>& info) {
        return allSwitches()[static_cast<size_t>(
                                 ::testing::get<0>(info.param))]
                   .label +
               "_" + ::testing::get<1>(info.param);
    });

}  // namespace
}  // namespace an2
