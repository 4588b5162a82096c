#include "an2/sim/simulator.h"

#include "an2/base/error.h"
#include "an2/obs/recorder.h"

namespace an2 {

namespace {

/**
 * The simulator's per-slot work as a SlotDriver, so the switch's batched
 * runSlots() owns the loop. Semantically identical to the historical
 * generate/classify/accept/runSlot sequence: arrivals are classified in
 * generation order (the fault injector's PRNG draws are unchanged), and
 * a dropped arrival emits only counters — no trace-ring events — so
 * filtering before acceptance leaves every observable byte the same.
 */
class SimDriver final : public SlotDriver
{
  public:
    SimDriver(InputQueuedSwitch& sw, TrafficGenerator& traffic,
              const SimConfig& config, MetricsCollector& metrics)
        : sw_(sw), traffic_(traffic), config_(config), metrics_(metrics)
    {
    }

    const std::vector<Cell>& beginSlot(SlotTime slot) override
    {
        if (config_.faults)
            config_.faults->beginSlot(slot, &sw_);
        arrivals_.clear();
        traffic_.generate(slot, arrivals_);
        if (!config_.faults) {
            for (const Cell& c : arrivals_) {
                metrics_.noteInjected(c);
                ++injected_;
            }
            return arrivals_;
        }
        accepted_.clear();
        for (const Cell& c : arrivals_) {
            metrics_.noteInjected(c);
            ++injected_;
            if (config_.faults->classifyArrival(c) !=
                fault::FaultInjector::Verdict::Deliver)
                continue;  // lost on the way in: dead port, drop, corrupt
            accepted_.push_back(c);
        }
        return accepted_;
    }

    void endSlot(SlotTime slot, const std::vector<Cell>& departed) override
    {
        obs::Recorder* rec = obs::current();  // hoisted: one load per slot
        for (const Cell& c : departed) {
            metrics_.noteDelivered(c, slot);
            ++delivered_;
            if (rec != nullptr)
                rec->cellDelivered(c, slot);
            if (config_.on_delivered)
                config_.on_delivered(c, slot);
        }
        int buffered = sw_.bufferedCells();
        metrics_.noteOccupancy(buffered);
        obs::setGauge(obs::Gauge::BufferedCells, buffered);
    }

    int64_t injected() const { return injected_; }
    int64_t delivered() const { return delivered_; }

  private:
    InputQueuedSwitch& sw_;
    TrafficGenerator& traffic_;
    const SimConfig& config_;
    MetricsCollector& metrics_;
    std::vector<Cell> arrivals_;
    std::vector<Cell> accepted_;  ///< arrivals surviving fault classification
    int64_t injected_ = 0;
    int64_t delivered_ = 0;
};

}  // namespace

SimResult
runSimulation(InputQueuedSwitch& sw, TrafficGenerator& traffic,
              const SimConfig& config)
{
    AN2_REQUIRE(config.slots > 0, "simulation needs at least one slot, got "
                                      << config.slots);
    AN2_REQUIRE(config.warmup >= 0,
                "warmup must be non-negative, got " << config.warmup);
    AN2_REQUIRE(config.warmup < config.slots,
                "warmup (" << config.warmup
                           << ") must be shorter than the simulation ("
                           << config.slots
                           << " slots); no slots would be measured");

    MetricsCollector metrics(config.warmup);

    // Loss baselines, so a reused switch/injector accounts only this run.
    const int64_t sw_dropped0 = sw.droppedCells();
    const int64_t fi_dropped0 =
        config.faults ? config.faults->cellsDropped() : 0;
    const int64_t fi_corrupted0 =
        config.faults ? config.faults->cellsCorrupted() : 0;

    SimDriver driver(sw, traffic, config, metrics);
    sw.runSlots(0, config.slots, driver);
    const int64_t injected_total = driver.injected();
    const int64_t delivered_total = driver.delivered();

    SimResult result;
    result.switch_dropped = sw.droppedCells() - sw_dropped0;
    if (config.faults) {
        result.fault_dropped = config.faults->cellsDropped() - fi_dropped0;
        result.fault_corrupted =
            config.faults->cellsCorrupted() - fi_corrupted0;
    }

    const int64_t lost =
        result.fault_dropped + result.fault_corrupted + result.switch_dropped;
    AN2_ASSERT(injected_total ==
                   delivered_total + sw.bufferedCells() + lost,
               "cell conservation violated: " << injected_total
                                              << " injected, "
                                              << delivered_total
                                              << " delivered, "
                                              << sw.bufferedCells()
                                              << " buffered, " << lost
                                              << " lost to faults");

    result.mean_delay = metrics.meanDelay();
    result.p99_delay = metrics.delayQuantile(0.99);
    result.injected = metrics.injected();
    result.delivered = metrics.delivered();
    result.measured_slots = config.slots - config.warmup;
    auto denom = static_cast<double>(result.measured_slots) * sw.size();
    result.throughput = static_cast<double>(result.delivered) / denom;
    result.offered = static_cast<double>(result.injected) / denom;
    result.max_occupancy = metrics.maxOccupancy();
    return result;
}

}  // namespace an2
