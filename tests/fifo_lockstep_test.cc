// Lockstep oracle for the switch core's FIFO input form: a naive
// reference switch (a std::deque per input, windowedFifoMatch over the
// exposed windows, erasure of the winning position) runs beside
// InputQueuedSwitch on the same seeded operation stream, and the two
// must depart the same cells, slot by slot.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"
#include "windowed_fifo.h"

namespace an2 {
namespace {

/** The reference FIFO switch, with the core's dead-port rules: arrivals
    at a dead port are dropped, a dead input exposes nothing, and the
    window stops at the first cell bound for a dead output. */
class ReferenceFifoSwitch
{
  public:
    ReferenceFifoSwitch(int n, uint64_t seed, int window, int rounds)
        : n_(n), window_(window), rounds_(rounds), rng_(seed),
          queues_(static_cast<size_t>(n)),
          in_live_(static_cast<size_t>(n), true),
          out_live_(static_cast<size_t>(n), true)
    {
    }

    void setInputPortLive(PortId i, bool live)
    {
        in_live_[static_cast<size_t>(i)] = live;
    }

    void setOutputPortLive(PortId j, bool live)
    {
        out_live_[static_cast<size_t>(j)] = live;
    }

    void acceptCell(const Cell& c)
    {
        if (!in_live_[static_cast<size_t>(c.input)] ||
            !out_live_[static_cast<size_t>(c.output)]) {
            ++dropped_;
            return;
        }
        queues_[static_cast<size_t>(c.input)].push_back(c);
    }

    std::vector<Cell> runSlot()
    {
        std::vector<std::vector<PortId>> dests(static_cast<size_t>(n_));
        for (size_t i = 0; i < queues_.size(); ++i) {
            if (!in_live_[i])
                continue;
            const std::deque<Cell>& q = queues_[i];
            for (size_t k = 0;
                 k < q.size() && k < static_cast<size_t>(window_); ++k) {
                if (!out_live_[static_cast<size_t>(q[k].output)])
                    break;
                dests[i].push_back(q[k].output);
            }
        }
        WindowedFifoResult res = windowedFifoMatch(dests, n_, rounds_, rng_);
        std::vector<Cell> departed;
        for (size_t i = 0; i < queues_.size(); ++i) {
            const int pos = res.positions[i];
            if (pos < 0)
                continue;
            std::deque<Cell>& q = queues_[i];
            departed.push_back(q[static_cast<size_t>(pos)]);
            q.erase(q.begin() + pos);
        }
        return departed;
    }

    int bufferedCells() const
    {
        int total = 0;
        for (const auto& q : queues_)
            total += static_cast<int>(q.size());
        return total;
    }

    int64_t droppedCells() const { return dropped_; }

  private:
    int n_;
    int window_;
    int rounds_;
    Xoshiro256 rng_;
    std::vector<std::deque<Cell>> queues_;
    std::vector<bool> in_live_;
    std::vector<bool> out_live_;
    int64_t dropped_ = 0;
};

/** The fields a departure is compared on. */
auto
key(const Cell& c)
{
    return std::make_tuple(c.flow, c.input, c.output, c.cls, c.seq,
                           c.arrival_slot, c.inject_slot);
}

// (ports, (window, rounds), workload)
using Param = std::tuple<int, std::pair<int, int>, std::string>;

class FifoLockstepTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(FifoLockstepTest, DeparturesMatchTheReferenceSlotBySlot)
{
    const auto& [n, form, workload] = GetParam();
    const auto [window, rounds] = form;
    const uint64_t seed = 1000 + static_cast<uint64_t>(n * 16 + window * 4 +
                                                       rounds);
    InputQueuedSwitch sw(n, seed, window, rounds);
    ReferenceFifoSwitch ref(n, seed, window, rounds);
    // Load 0.7 is above head-of-line saturation for n >= 4, so windows
    // fill and losers step behind the head; the bursty workload stacks
    // runs of one destination at an input.
    std::unique_ptr<TrafficGenerator> traffic;
    if (workload == "uniform")
        traffic = std::make_unique<UniformTraffic>(n, 0.7, seed + 1);
    else
        traffic = std::make_unique<BurstyTraffic>(n, 0.7, 8.0, seed + 1);
    // Port deaths and revivals on their own stream, about one toggle
    // every 40 slots; some cells are CBR-class, which the FIFO form
    // queues like any other.
    Xoshiro256 chaos(seed + 2);
    const SlotTime slots = n >= 80 ? 1500 : 3000;
    std::vector<Cell> arrivals;
    int64_t departures = 0;
    int64_t deaths = 0;
    for (SlotTime slot = 0; slot < slots; ++slot) {
        if (chaos.nextBelow(40) == 0) {
            const auto port = static_cast<PortId>(
                chaos.nextBelow(static_cast<uint64_t>(n)));
            const bool input = chaos.nextBelow(2) == 0;
            const bool live = input ? !sw.inputPortLive(port)
                                    : !sw.outputPortLive(port);
            if (input) {
                sw.setInputPortLive(port, live);
                ref.setInputPortLive(port, live);
            } else {
                sw.setOutputPortLive(port, live);
                ref.setOutputPortLive(port, live);
            }
            deaths += !live;
        }
        arrivals.clear();
        traffic->generate(slot, arrivals);
        for (Cell& c : arrivals) {
            if (chaos.nextBelow(8) == 0)
                c.cls = TrafficClass::CBR;
            sw.acceptCell(c);
            ref.acceptCell(c);
        }
        const std::vector<Cell>& got = sw.runSlot(slot);
        const std::vector<Cell> want = ref.runSlot();
        ASSERT_EQ(got.size(), want.size()) << "slot " << slot;
        for (size_t k = 0; k < got.size(); ++k)
            ASSERT_EQ(key(got[k]), key(want[k]))
                << "slot " << slot << ", departure " << k;
        ASSERT_EQ(sw.bufferedCells(), ref.bufferedCells()) << "slot " << slot;
        ASSERT_EQ(sw.droppedCells(), ref.droppedCells()) << "slot " << slot;
        departures += static_cast<int64_t>(got.size());
    }
    EXPECT_GT(departures, 0);
    EXPECT_GT(deaths, 0);
    EXPECT_GT(sw.droppedCells(), 0);
}

std::string
paramName(const ::testing::TestParamInfo<Param>& info)
{
    const auto& [n, form, workload] = info.param;
    return workload + "_n" + std::to_string(n) + "_w" +
           std::to_string(form.first) + "_r" + std::to_string(form.second);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FifoLockstepTest,
    ::testing::Combine(::testing::Values(1, 2, 16, 80),
                       ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                         std::pair{4, 1}, std::pair{4, 4}),
                       ::testing::Values("uniform", "bursty")),
    paramName);

TEST(FifoFormTest, OccupancyCountsTheRings)
{
    // fillOccupancy reports one voq[i][output] per queued cell and the
    // per-output totals; window 4 leaves cells behind a departed one.
    InputQueuedSwitch sw(4, 3, /*window=*/4, /*rounds=*/4);
    UniformTraffic traffic(4, 1.0, 5);
    std::vector<Cell> arrivals;
    std::vector<int32_t> want(16, 0);
    for (SlotTime slot = 0; slot < 50; ++slot) {
        arrivals.clear();
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals) {
            sw.acceptCell(c);
            ++want[static_cast<size_t>(c.input * 4 + c.output)];
        }
        for (const Cell& c : sw.runSlot(slot))
            --want[static_cast<size_t>(c.input * 4 + c.output)];
    }
    std::vector<int32_t> voq(16, -1), backlog(4, -1);
    sw.fillOccupancy(voq.data(), backlog.data());
    EXPECT_EQ(voq, want);
    for (int j = 0; j < 4; ++j) {
        int32_t column = 0;
        for (int i = 0; i < 4; ++i)
            column += want[static_cast<size_t>(i * 4 + j)];
        EXPECT_EQ(backlog[static_cast<size_t>(j)], column);
    }
    EXPECT_GT(sw.bufferedCells(), 0);
}

}  // namespace
}  // namespace an2
