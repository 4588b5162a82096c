// Verifies the hot-path guarantee: after warmup, InputQueuedSwitch's
// runSlot() performs zero heap allocations. A global counting operator
// new tracks every allocation and its bytes; allocations are counted only
// inside the runSlot() calls themselves (arrival-side enqueues may
// legitimately grow buffers). The byte count pins the request matrix's
// footprint. This test must stay in its own binary: the replacement
// operator new is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "an2/cbr/slepian_duguid.h"
#include "an2/fault/fault_plan.h"
#include "an2/fault/injector.h"
#include "an2/harness/arch.h"
#include "an2/matching/fill_in.h"
#include "an2/matching/pim.h"
#include "an2/matching/request_matrix.h"
#include "an2/matching/statistical.h"
#include "an2/network/network.h"
#include "an2/obs/recorder.h"
#include "an2/queueing/voq.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/metrics.h"
#include "an2/sim/traffic.h"
#include "an2/topo/lan.h"
#include "an2/topo/routing.h"
#include "an2/topo/topology.h"

// The attached-recorder assertions need the probes compiled in.
#ifdef AN2_OBS_DISABLED
#define SKIP_IF_OBS_DISABLED() \
    GTEST_SKIP() << "obs layer compiled out (AN2_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_DISABLED() (void)0
#endif

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_bytes{0};

}  // namespace

// Every replacement stays out of line: once one side of a new/delete
// pair is inlined, GCC pairs its malloc() or free() with the other
// side's operator call and reports -Wmismatched-new-delete.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms are replaced too: std::stable_sort takes its
// temporary buffer from them and frees it through the replaced
// operator delete, so under ASan a library-provided nothrow new would
// pair with free() and abort with alloc-dealloc-mismatch.
[[gnu::noinline]] void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size);
}

[[gnu::noinline]] void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return ::operator new(size, tag);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace an2 {
namespace {

/** Drive `sw` on a uniform workload (load 0.9 by default); count runSlot
    allocations in slots [warmup, warmup + measured). */
size_t
allocationsDuringSteadyState(InputQueuedSwitch& sw, int warmup, int measured,
                             double load = 0.9)
{
    UniformTraffic traffic(sw.size(), load, 2026);
    std::vector<Cell> arrivals;
    size_t counted = 0;
    for (SlotTime slot = 0; slot < warmup + measured; ++slot) {
        arrivals.clear();
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals)
            sw.acceptCell(c);
        size_t before = g_allocations.load(std::memory_order_relaxed);
        const std::vector<Cell>& departed = sw.runSlot(slot);
        size_t after = g_allocations.load(std::memory_order_relaxed);
        (void)departed;
        if (slot >= warmup)
            counted += after - before;
    }
    return counted;
}

TEST(ZeroAllocTest, SingleMatcherRunSlotSteadyStateIsAllocationFree)
{
    // (registry name, seed); iSLIP draws no random numbers. The +warm
    // path (seed + repair + remember) reuses the state vector sized on
    // the first slot, so steady state must stay off the heap on both the
    // full-reuse and repair tiers.
    const std::pair<const char*, uint64_t> kArchs[] = {
        {"PIM(4)", 1},        {"PIM(4)-pipelined", 2}, {"iSLIP(4)", 0},
        {"Greedy", 3},        {"iSLIP(4)+warm", 0},    {"Greedy+warm", 3},
        {"Maximum", 0},
    };
    for (const auto& [name, seed] : kArchs) {
        auto sw = harness::archByName(name).make(16, seed);
        EXPECT_EQ(allocationsDuringSteadyState(*sw, 2000, 2000), 0u) << name;
    }
}

TEST(ZeroAllocTest, StatisticalSwitchesSteadyStateAreAllocationFree)
{
    // Figure 8's statistical matcher (X = 1000, two rounds) and its
    // Section 5.2 form with a PIM(4) fill-in, at 16 ports with every
    // pair booked alike (62 units). Uniform load 0.5 stays inside the
    // booked rates, so the queues stay bounded.
    Matrix<int> alloc(16, 16, 1000 / 16);
    const StatisticalConfig cfg{.units = 1000, .rounds = 2, .seed = 12};
    InputQueuedSwitch stat(IqSwitchConfig{.n = 16},
                           std::make_unique<StatisticalMatcher>(alloc, cfg));
    EXPECT_EQ(allocationsDuringSteadyState(stat, 2000, 2000, 0.5), 0u);

    InputQueuedSwitch fill_in(
        IqSwitchConfig{.n = 16},
        std::make_unique<FillInMatcher>(
            std::make_unique<StatisticalMatcher>(
                alloc, StatisticalConfig{.units = 1000,
                                         .rounds = 2,
                                         .seed = 13}),
            std::make_unique<PimMatcher>(
                PimConfig{.iterations = 4, .seed = 14})));
    EXPECT_EQ(allocationsDuringSteadyState(fill_in, 2000, 2000, 0.5), 0u);
}

TEST(ZeroAllocTest, CbrMaskedPimSwitchSteadyStateIsAllocationFree)
{
    // A 16-port PIM(4) switch under a Slepian-Duguid frame schedule, as
    // in the iq16_pim_cbr benchmark: every slot that serves a
    // reservation matches VBR over a copy of the request matrix with the
    // CBR-claimed ports cleared. Each input and output carries 3 reserved
    // cells per 32-slot frame, sent at the frame's start, beside uniform
    // VBR load 0.8.
    constexpr int kN = 16;
    constexpr int kFrame = 32;
    // (output shift, cells per frame) of each input's two bookings.
    constexpr std::pair<int, int> kBookings[] = {{1, 2}, {5, 1}};
    SlepianDuguidScheduler sd(kN, kFrame);
    for (auto [shift, cells] : kBookings)
        for (PortId i = 0; i < kN; ++i)
            ASSERT_TRUE(sd.addReservation(i, (i + shift) % kN, cells));
    InputQueuedSwitch sw(
        IqSwitchConfig{.n = kN},
        std::make_unique<PimMatcher>(PimConfig{.iterations = 4, .seed = 15}),
        &sd.schedule());
    UniformTraffic traffic(kN, 0.8, 2027);
    std::vector<Cell> arrivals;
    size_t counted = 0;
    for (SlotTime slot = 0; slot < 4000; ++slot) {
        arrivals.clear();
        if (slot % kFrame == 0) {
            for (auto [shift, cells] : kBookings) {
                for (PortId i = 0; i < kN; ++i) {
                    Cell c;
                    c.input = i;
                    c.output = (i + shift) % kN;
                    c.flow = (FlowId{1} << 30) + i * kN + c.output;
                    c.cls = TrafficClass::CBR;
                    c.inject_slot = slot;
                    c.arrival_slot = slot;
                    for (int k = 0; k < cells; ++k)
                        arrivals.push_back(c);
                }
            }
        }
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals)
            sw.acceptCell(c);
        const size_t before = g_allocations.load(std::memory_order_relaxed);
        sw.runSlot(slot);
        if (slot >= 2000)
            counted += g_allocations.load(std::memory_order_relaxed) - before;
    }
    EXPECT_EQ(counted, 0u);
    EXPECT_EQ(sw.cbrForwarded(), 4000 / kFrame * kN * 3);
}

TEST(RequestMatrixFootprint, ThousandPortsAllocateUnder264KiB)
{
    // One bit per port pair in each of two views (row masks, column
    // masks): 2 x 128 KiB at 1024 ports, plus one 128-byte word set of
    // requested outputs. A cell count per pair would take 4 MiB on its
    // own.
    const size_t before = g_bytes.load(std::memory_order_relaxed);
    RequestMatrix req(1024);
    const size_t bytes = g_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_LT(bytes, size_t{264} << 10);
    EXPECT_EQ(req.numEdges(), 0);
}

TEST(RouterFootprint, HostDistancesCacheOneFieldPerEdgeSwitch)
{
    // Every ordered host pair of fatTree(8, 8) (80 switches, 256 hosts):
    // a host's field is its edge switch's plus one hop, so the router
    // caches 32 edge-switch fields of 336 int32 (about 43 KiB), not one
    // per destination host (256 fields, about 344 KiB).
    topo::Topology t = topo::Topology::fatTree(8, 8);
    topo::Router r(t);
    const std::vector<NodeId> hosts = t.hosts();
    const size_t before = g_bytes.load(std::memory_order_relaxed);
    int64_t hops = 0;
    for (NodeId src : hosts)
        for (NodeId dst : hosts)
            hops += r.distance(src, dst);
    const size_t bytes = g_bytes.load(std::memory_order_relaxed) - before;
    EXPECT_LT(bytes, size_t{64} << 10);
    // 7 same-switch peers at 2 hops, 24 same-pod hosts at 4, the rest
    // (224) at 6.
    EXPECT_EQ(hops, int64_t{256} * (7 * 2 + 24 * 4 + 224 * 6));
}

namespace {

/**
 * SlotDriver base that counts heap allocations from the start of each
 * slot's accepts to the end of its runSlot, in slots at or after
 * `warmup`. Subclasses append the slot's arrivals.
 */
class CountingDriver : public SlotDriver
{
  public:
    CountingDriver(int n, SlotTime warmup) : n_(n), warmup_(warmup) {}

    const std::vector<Cell>& beginSlot(SlotTime slot) override
    {
        arrivals_.clear();
        arrive(slot);
        before_ = g_allocations.load(std::memory_order_relaxed);
        return arrivals_;
    }

    void endSlot(SlotTime slot, const std::vector<Cell>&) override
    {
        size_t after = g_allocations.load(std::memory_order_relaxed);
        if (slot >= warmup_)
            counted_ += after - before_;
    }

    size_t counted() const { return counted_; }

  protected:
    virtual void arrive(SlotTime slot) = 0;

    /** Append one VBR cell from input i to output j. */
    void push(PortId i, PortId j, SlotTime slot, int64_t seq)
    {
        Cell c;
        c.input = i;
        c.output = j;
        c.flow = i * n_ + j;
        c.cls = TrafficClass::VBR;
        c.seq = seq;
        c.inject_slot = slot;
        c.arrival_slot = slot;
        arrivals_.push_back(c);
    }

    int n_;

  private:
    SlotTime warmup_;
    std::vector<Cell> arrivals_;
    size_t before_ = 0;
    size_t counted_ = 0;
};

/**
 * A deterministic full-load permutation (input i always sends to output
 * (i + 3) % n). Queue depth is stationary, so no ring can legitimately
 * grow after warmup — unlike Bernoulli workloads, whose rare depth
 * excursions grow arrival-side buffers forever — making the batched
 * accept + runSlot measurement exact. The request matrix is also
 * unchanged across slots (counts never cross zero), so a warm matcher
 * rides the full-reuse tier.
 */
class PermutationDriver final : public CountingDriver
{
  public:
    using CountingDriver::CountingDriver;

  private:
    void arrive(SlotTime slot) override
    {
        // Slot 0 primes each flow with an extra cell so queue depths
        // stay >= 1 forever after: request counts then never cross
        // zero, the matrix epoch freezes, and the warm matcher rides
        // the full-reuse tier every subsequent slot.
        const int per_input = slot == 0 ? 2 : 1;
        for (PortId i = 0; i < n_; ++i)
            for (int k = 0; k < per_input; ++k)
                push(i, (i + 3) % n_, slot, slot + k);
    }
};

/**
 * Full load that needs a replicated fabric: inputs 2m and 2m+1 both
 * send to output m on even slots and to output n/2 + m on odd slots.
 * Every port carries load 1, and every busy output has two requesters,
 * so a k = 2 matcher grants both each slot (its shuffle runs) and each
 * output ends every slot with at most one cell queued.
 */
class PairedOutputsDriver final : public CountingDriver
{
  public:
    using CountingDriver::CountingDriver;

  private:
    void arrive(SlotTime slot) override
    {
        const int half = slot % 2 == 0 ? 0 : n_ / 2;
        for (PortId i = 0; i < n_; ++i)
            push(i, half + i / 2, slot, slot);
    }
};

}  // namespace

TEST(ZeroAllocTest, BatchedRunSlotsSteadyStateIsAllocationFree)
{
    // The batched driver loop — including the warm matcher and the
    // per-cell accepts now inside the switch's runSlots() — must be
    // allocation-free after warmup, with and without a recorder.
    auto sw = harness::archByName("iSLIP(4)+warm").make(16, 0);
    PermutationDriver driver(16, 100);
    sw->runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
}

TEST(ZeroAllocTest, BatchedRunSlotsWithRecorderIsAllocationFree)
{
    SKIP_IF_OBS_DISABLED();
    obs::Recorder rec(
        obs::RecorderConfig{.trace_capacity = 512, .ports = 16});
    obs::attach(&rec);
    auto sw = harness::archByName("iSLIP(4)+warm").make(16, 0);
    PermutationDriver driver(16, 100);
    sw->runSlots(0, 2000, driver);
    obs::detach();
    EXPECT_EQ(driver.counted(), 0u);
    EXPECT_EQ(rec.counter(obs::Counter::SlotsRun), 2000);
    EXPECT_GT(rec.counter(obs::Counter::MatchEdgesReused), 0);
    EXPECT_GT(rec.counter(obs::Counter::WarmStartFullReuses), 0);
}

TEST(ZeroAllocTest, CioqRunSlotsSteadyStateIsAllocationFree)
{
    // CIOQ adds per-output class rings and up to S matching phases per
    // slot; under the stationary permutation load the rings reach their
    // high-water capacity during warmup and must never grow again.
    // (Bernoulli workloads are unsuitable here: their rare backlog
    // excursions legitimately grow the output rings inside runSlot.)
    auto sw = harness::archByName("CIOQ(S=2,strict)").make(16, 5);
    PermutationDriver driver(16, 100);
    sw->runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
}

TEST(ZeroAllocTest, CioqWrrRunSlotsSteadyStateIsAllocationFree)
{
    auto sw = harness::archByName("CIOQ(S=3,wrr)").make(16, 6);
    PermutationDriver driver(16, 100);
    sw->runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
}

TEST(ZeroAllocTest, ReplicatedFabricPimRunSlotsSteadyStateIsAllocationFree)
{
    // PIM granting up to k = 2 cells per output (the replicated fabric of
    // paper §3.1) draws its grants by shuffling a preallocated requester
    // array and drains through the output stage.
    InputQueuedSwitch sw(
        IqSwitchConfig{.n = 16, .service = ServiceDiscipline::Strict},
        std::make_unique<PimMatcher>(PimConfig{
            .iterations = 4, .output_capacity = 2, .seed = 8}));
    PairedOutputsDriver driver(16, 100);
    sw.runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
    EXPECT_EQ(sw.outputQueueHighWaterMark(), 1);
}

TEST(ZeroAllocTest, OutputQueuedSteadyStateIsAllocationFree)
{
    // The perfect fabric files each cell in its output's ring at accept.
    // Under the stationary permutation load each ring reaches its depth
    // during warmup and never grows again.
    auto sw = harness::archByName("OutputQueued").make(16, 0);
    PermutationDriver driver(16, 100);
    sw->runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
}

TEST(ZeroAllocTest, FifoInputFormSteadyStateIsAllocationFree)
{
    // The FIFO input form runs its contention rounds in scratch sized at
    // construction, and a winner from behind the head leaves its ring in
    // place. Uniform load 0.5 stays below head-of-line saturation (about
    // 0.6), where the rings stay bounded; above it they grow forever. At
    // 80 ports the contended-output mask spans two words.
    for (const char* name : {"FIFO", "FIFO(window=4,rounds=4)"}) {
        for (int n : {16, 80}) {
            auto sw = harness::archByName(name).make(n, 9);
            EXPECT_EQ(allocationsDuringSteadyState(*sw, 2000, 2000, 0.5), 0u)
                << name << " n=" << n;
        }
        auto sw = harness::archByName(name).make(16, 10);
        PermutationDriver driver(16, 100);
        sw->runSlots(0, 2000, driver);
        EXPECT_EQ(driver.counted(), 0u) << name;
    }
}

TEST(ZeroAllocTest, VirtualClockSteadyStateIsAllocationFree)
{
    // The virtual clock stamps each accepted cell from its flow's clock
    // (a flat-map probe) and pushes it onto its output's heap. Every
    // flow is touched in the first slot, and under the stationary
    // permutation load each heap keeps the capacity it reached then.
    InputQueuedSwitch sw(
        IqSwitchConfig{.n = 16, .service = ServiceDiscipline::VirtualClock});
    for (PortId i = 0; i < 16; i += 2)
        sw.setFlowRate(i * 16 + (i + 3) % 16, 0.5);
    PermutationDriver driver(16, 100);
    sw.runSlots(0, 2000, driver);
    EXPECT_EQ(driver.counted(), 0u);
    EXPECT_EQ(sw.outputQueueHighWaterMark(), 1);
}

TEST(ZeroAllocTest, MultiWordSwitchSteadyStateIsAllocationFree)
{
    // 80 ports: the busy masks and request rows span two words.
    auto sw = harness::archByName("PIM(4)").make(80, 4);
    EXPECT_EQ(allocationsDuringSteadyState(*sw, 2000, 1000), 0u);
}

TEST(ZeroAllocTest, AttachedRecorderSteadyStateIsAllocationFree)
{
    SKIP_IF_OBS_DISABLED();
    // Full observation enabled — counters, histograms, and the event ring
    // (small enough that drop-oldest wraps constantly) — must add zero
    // heap traffic to the steady-state slot loop.
    obs::Recorder rec(
        obs::RecorderConfig{.trace_capacity = 512, .ports = 16});
    obs::attach(&rec);
    auto sw = harness::archByName("PIM(4)").make(16, 5);
    size_t allocs = allocationsDuringSteadyState(*sw, 2000, 2000);
    obs::detach();
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(rec.counter(obs::Counter::SlotsRun), 4000);
    EXPECT_GT(rec.counter(obs::Counter::MatchIterations), 0);
    EXPECT_EQ(rec.eventCount(), 512u);
    EXPECT_GT(rec.droppedEvents(), 0);
}

TEST(ZeroAllocTest, LatencyAndTimeSeriesSteadyStateIsAllocationFree)
{
    SKIP_IF_OBS_DISABLED();
    // The full telemetry tier: latency histograms (class + per-port +
    // hop delay) on every delivery and a metrics sample landing every
    // 500 slots — 8 samples inside the measured window, each copying
    // all counters, gauges, and latency quantiles into the
    // preallocated ring. Still zero heap traffic.
    obs::Recorder rec(obs::RecorderConfig{.ports = 16,
                                          .track_latency = true,
                                          .metrics_every = 500,
                                          .metrics_capacity = 64});
    obs::attach(&rec);
    auto sw = harness::archByName("PIM(4)").make(16, 7);
    UniformTraffic traffic(16, 0.9, 2029);
    std::vector<Cell> arrivals;
    constexpr int kWarmup = 2000, kMeasured = 4000;
    size_t counted = 0;
    for (SlotTime slot = 0; slot < kWarmup + kMeasured; ++slot) {
        arrivals.clear();
        traffic.generate(slot, arrivals);
        for (const Cell& c : arrivals)
            sw->acceptCell(c);
        // The delivery probe (as fired by the production SimDriver) is
        // part of the measured region alongside runSlot.
        size_t before = g_allocations.load(std::memory_order_relaxed);
        const std::vector<Cell>& departed = sw->runSlot(slot);
        for (const Cell& c : departed)
            rec.cellDelivered(c, slot);
        size_t after = g_allocations.load(std::memory_order_relaxed);
        if (slot >= kWarmup)
            counted += after - before;
    }
    obs::detach();
    EXPECT_EQ(counted, 0u);
    EXPECT_GT(rec.counter(obs::Counter::CellsDelivered), 0);
    EXPECT_EQ(rec.counter(obs::Counter::MetricsSamples), 11);
    EXPECT_EQ(rec.metrics().size(), 11u);
    EXPECT_GT(rec.latencyHistogram(TrafficClass::VBR).count(), 0);
    EXPECT_GT(rec.hopDelayHistogram(TrafficClass::VBR).count(), 0);
}

TEST(ZeroAllocTest, AttachedRecorderIslipCountersAllocationFree)
{
    SKIP_IF_OBS_DISABLED();
    // The iSLIP probes (rec-guarded popcounts in the word-parallel core)
    // must stay allocation-free too.
    obs::Recorder rec(obs::RecorderConfig{.trace_capacity = 256});
    obs::attach(&rec);
    auto sw = harness::archByName("iSLIP(4)").make(16, 0);
    size_t allocs = allocationsDuringSteadyState(*sw, 2000, 2000);
    obs::detach();
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(rec.counter(obs::Counter::RequestsSeen), 0);
}

TEST(ZeroAllocTest, FaultedSlotLoopSteadyStateIsAllocationFree)
{
    // The fault path — injector beginSlot (including the port-down and
    // port-up events landing mid-measurement), per-cell arrival
    // classification with drop/corrupt draws, the masked slot loop, and
    // the always-on invariant checker — must add zero heap traffic.
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "out_down(3)@2500,out_up(3)@3200,in_down(5)@2600,in_up(5)@3100,"
        "drop(0.02),corrupt(0.01)");
    fault::FaultInjector injector(16, plan, 99);
    InputQueuedSwitch sw(IqSwitchConfig{.n = 16},
                         std::make_unique<PimMatcher>(
                             PimConfig{.iterations = 4, .seed = 6}));
    UniformTraffic traffic(16, 0.9, 2027);
    std::vector<Cell> arrivals;
    constexpr int kWarmup = 2000, kMeasured = 2000;
    size_t counted = 0;
    for (SlotTime slot = 0; slot < kWarmup + kMeasured; ++slot) {
        arrivals.clear();
        traffic.generate(slot, arrivals);
        // beginSlot (event application + masks) and classifyArrival
        // (verdict draws) are measured; acceptCell stays outside, as in
        // the unfaulted tests, because arrival-side enqueues may
        // legitimately grow buffers.
        size_t before = g_allocations.load(std::memory_order_relaxed);
        injector.beginSlot(slot, &sw);
        size_t after = g_allocations.load(std::memory_order_relaxed);
        size_t slot_allocs = after - before;
        for (const Cell& c : arrivals) {
            before = g_allocations.load(std::memory_order_relaxed);
            fault::FaultInjector::Verdict v = injector.classifyArrival(c);
            after = g_allocations.load(std::memory_order_relaxed);
            slot_allocs += after - before;
            if (v == fault::FaultInjector::Verdict::Deliver)
                sw.acceptCell(c);
        }
        before = g_allocations.load(std::memory_order_relaxed);
        (void)sw.runSlot(slot);
        after = g_allocations.load(std::memory_order_relaxed);
        slot_allocs += after - before;
        if (slot >= kWarmup)
            counted += slot_allocs;
    }
    EXPECT_EQ(counted, 0u);
    EXPECT_EQ(injector.eventsApplied(), 4);
    EXPECT_GT(injector.cellsDropped(), 0);
    EXPECT_GT(injector.cellsCorrupted(), 0);
}

TEST(ZeroAllocTest, NetworkSteadyStateIsAllocationFree)
{
    // Whole-network steady state: controllers injecting VBR + CBR,
    // switches matching and forwarding, links shifting cells, and
    // delivery bookkeeping in the controllers' flat per-flow stores.
    // After warmup frames have sized every ring and flat container,
    // further one-shard frames must not touch the heap. The measured
    // span advances one frame per call, as frame-sampled callers do, so
    // the engine's per-call set-up (window width and earliest tick) and
    // its window loop are measured too.
    topo::Topology topo = topo::Topology::star(4, 2);
    topo::LanConfig config;
    config.seed = 31;
    config.matcher = [](int /*ports*/, uint64_t seed) {
        return std::make_unique<PimMatcher>(PimConfig{
            .iterations = 4, .seed = seed});
    };
    topo::Lan lan(topo, config);
    topo::TrafficSpec vbr;
    vbr.cls = TrafficClass::VBR;
    vbr.vbr_rate = 0.2;
    lan.placeMatrix(topo::Pattern::Uniform, vbr, /*seed=*/7);
    topo::TrafficSpec cbr;
    cbr.cls = TrafficClass::CBR;
    cbr.cbr_cells_per_frame = 2;
    lan.placeMatrix(topo::Pattern::Uniform, cbr, /*seed=*/8);

    lan.runFrames(12);  // warmup: grow rings, flat maps, scratch
    size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int64_t frame = 13; frame <= 64; ++frame)
        lan.runFrames(frame);  // runs up to the end of `frame`
    size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    topo::LanStats stats = lan.stats();
    EXPECT_GT(stats.delivered, 0);
}

TEST(ZeroAllocTest, StatisticalChainNetworkSteadyStateIsAllocationFree)
{
    // Figure 9's parking lot under statistical matching: three 3-port
    // NetSwitches in a chain, each booking its output link in proportion
    // to the flows on each input (port 0 upstream, port 1 local), and
    // four VBR flows merging onto the last link. The flows run at 0.1
    // cells per slot, inside every pair's two-round share (72% of its
    // booking), so the queues stay bounded. After warmup frames have
    // sized every ring and flat container, further frames must not touch
    // the heap.
    NetworkConfig cfg;
    cfg.slot_ps = 1000;
    cfg.switch_frame_slots = 50;
    Network net(cfg);
    auto statistical = [](int upstream_flows, uint64_t seed) {
        Matrix<int> alloc(3, 3, 0);
        alloc(0, 2) = 1000 * upstream_flows / (upstream_flows + 1);
        alloc(1, 2) = 1000 / (upstream_flows + 1);
        return std::make_unique<StatisticalMatcher>(
            alloc,
            StatisticalConfig{.units = 1000, .rounds = 2, .seed = seed});
    };
    NodeId src_d = net.addController(0.0, 1);
    NodeId src_c = net.addController(0.0, 2);
    NodeId src_b = net.addController(0.0, 3);
    NodeId src_a = net.addController(0.0, 4);
    NodeId sink = net.addController(0.0, 5);
    NodeId s1 = net.addSwitch(3, 0.0, statistical(1, 11));
    NodeId s2 = net.addSwitch(3, 0.0, statistical(2, 12));
    NodeId s3 = net.addSwitch(3, 0.0, statistical(3, 13));
    net.connect(src_d, 0, s1, 0, 100);
    net.connect(src_c, 0, s1, 1, 100);
    net.connect(s1, 2, s2, 0, 100);
    net.connect(src_b, 0, s2, 1, 100);
    net.connect(s2, 2, s3, 0, 100);
    net.connect(src_a, 0, s3, 1, 100);
    net.connect(s3, 2, sink, 0, 100);
    const FlowId flows[] = {
        net.addVbrFlow({src_d, s1, s2, s3, sink}, 0.1),
        net.addVbrFlow({src_c, s1, s2, s3, sink}, 0.1),
        net.addVbrFlow({src_b, s2, s3, sink}, 0.1),
        net.addVbrFlow({src_a, s3, sink}, 0.1),
    };

    net.runFrames(200);  // warmup: grow rings, flat maps, scratch
    size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int64_t frame = 201; frame <= 600; ++frame)
        net.runFrames(frame);  // runs up to the end of `frame`
    size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    for (FlowId f : flows)
        EXPECT_GT(net.controller(sink).deliveryStats(f).delivered, 0);
}

TEST(ZeroAllocTest, MetricsDeliverySteadyStateIsAllocationFree)
{
    // Delivery bookkeeping (delay moments + delay histogram + counts)
    // must not allocate once the collector is built: the histogram's
    // bins are all allocated by its constructor.
    MetricsCollector m(0);
    Cell c;
    size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 3; ++round) {
        for (int f = 0; f < 256; ++f) {
            c.flow = f;
            c.input = f % 16;
            c.output = (f / 16) % 16;
            c.inject_slot = 10;
            m.noteDelivered(c, 12);
        }
    }
    size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(m.delivered(), 3 * 256);
    EXPECT_EQ(m.delayQuantile(0.5), 2.0);
}

TEST(ZeroAllocTest, InputBufferMemoryFollowsCellsNotFlows)
{
    // One cell from each of 4096 flows passes through one input: the
    // flow table and index double as flows appear, but cells reuse one
    // slab entry, so there is no per-flow queue storage to allocate.
    InputBuffer buf(16);
    size_t before = g_allocations.load(std::memory_order_relaxed);
    for (FlowId f = 0; f < 4096; ++f) {
        Cell c;
        c.flow = f;
        c.output = f % 16;
        c.seq = f;
        buf.enqueue(c);
        EXPECT_EQ(buf.dequeueFor(c.output).flow, f);
    }
    size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_LT(after - before, 64u);
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(ZeroAllocTest, CountingAllocatorIsLive)
{
    // Sanity-check the instrument itself.
    size_t before = g_allocations.load();
    auto* v = new std::vector<int>(100);
    size_t after = g_allocations.load();
    delete v;
    EXPECT_GT(after, before);
}

}  // namespace
}  // namespace an2
