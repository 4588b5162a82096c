/**
 * @file
 * Workload generators for the single-switch experiments (paper §3.5).
 *
 * Each generator produces at most one cell per input per slot (cells
 * arrive at link speed). Offered load is the probability that a cell
 * arrives on a given link in a given slot. Generators number one flow
 * per (input, output) connection they use, in order of first use, so
 * per-flow FIFO order is measurable.
 */
#ifndef AN2_SIM_TRAFFIC_H
#define AN2_SIM_TRAFFIC_H

#include <istream>
#include <memory>
#include <vector>

#include "an2/base/matrix.h"
#include "an2/base/rng.h"
#include "an2/cell/cell.h"

namespace an2 {

/** Produces the cells arriving at each input in each slot. */
class TrafficGenerator
{
  public:
    virtual ~TrafficGenerator() = default;

    /**
     * Append the cells arriving in `slot` to `out` (at most one per
     * input), fully stamped (flow, ports, inject_slot, seq).
     */
    virtual void generate(SlotTime slot, std::vector<Cell>& out) = 0;

    /** Cells injected so far. */
    int64_t cellsInjected() const { return cells_injected_; }

  protected:
    TrafficGenerator(int n_inputs, int n_outputs);

    /** Build and account a VBR cell on the (i,j) connection flow. */
    Cell makeCell(PortId i, PortId j, SlotTime slot);

    /**
     * Build and account a cell of class `cls` on the (i,j) connection
     * flow. Callers must pass a class that is a pure function of (i,j),
     * so that every cell of a flow has one class.
     */
    Cell makeCell(PortId i, PortId j, SlotTime slot, TrafficClass cls);

    int n_inputs_;
    int n_outputs_;

  private:
    /**
     * Per-connection state, one record so stamping a cell touches one
     * cache line: the lazily-created flow id and the next FIFO sequence
     * number.
     */
    struct ConnState
    {
        FlowId flow = kNoFlow;
        int64_t seq = 0;
    };

    Matrix<ConnState> conn_;
    FlowId next_flow_ = 0;
    int64_t cells_injected_ = 0;
};

/**
 * Bernoulli-uniform workload (Figure 3): every input independently
 * receives a cell with probability `load` each slot; destinations are
 * uniform over all outputs.
 */
class UniformTraffic final : public TrafficGenerator
{
  public:
    UniformTraffic(int n, double load, uint64_t seed);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

  private:
    double load_;
    Xoshiro256 rng_;
};

/**
 * Bernoulli-uniform workload carrying a CBR/VBR/best-effort mix for the
 * CIOQ per-class service experiments. Arrivals are drawn exactly as in
 * UniformTraffic (same seed, same PRNG stream — common random numbers
 * across architectures); each connection's class is a pure splitmix64
 * hash of (i, j) against the mix fractions, so the class assignment is
 * deterministic and independent of the arrival draws. No frame schedule
 * is involved: CBR cells here are simply the top service class at a
 * CIOQ/OQ output (do not offer them to a schedule-less IQ switch).
 */
class MultiClassUniformTraffic final : public TrafficGenerator
{
  public:
    /**
     * @param n Switch size.
     * @param load Arrival probability per input per slot (all classes).
     * @param seed PRNG seed.
     * @param cbr_fraction Fraction of connections assigned CBR.
     * @param be_fraction Fraction assigned best-effort; the rest is VBR.
     */
    MultiClassUniformTraffic(int n, double load, uint64_t seed,
                             double cbr_fraction = 0.2,
                             double be_fraction = 0.3);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

    /** The deterministic class of connection (i, j). */
    TrafficClass classOf(PortId i, PortId j) const;

  private:
    double load_;
    double cbr_fraction_;
    double be_fraction_;
    Xoshiro256 rng_;
};

/**
 * Client-server workload (Figure 4): the first `num_servers` ports are
 * servers; destination weights make client-client connections carry only
 * `client_client_ratio` (default 5%) of the traffic of connections that
 * involve a server. `server_load` is the resulting offered load on a
 * server's output link; per-input arrival rates are calibrated from it.
 */
class ClientServerTraffic final : public TrafficGenerator
{
  public:
    ClientServerTraffic(int n, int num_servers, double server_load,
                        uint64_t seed, double client_client_ratio = 0.05);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

    /** Per-input arrival probability implied by the calibration. */
    double arrivalRate() const { return arrival_rate_; }

  private:
    int num_servers_;
    double arrival_rate_;
    /** Destination CDF per input. */
    std::vector<std::vector<double>> dest_cdf_;
    Xoshiro256 rng_;
};

/**
 * Adversarial periodic workload (Figure 1, after Li 1988): every input
 * receives (with probability `load`) cells for the *same* rotating
 * output, in bursts of `burst` consecutive slots per output
 * (destination = (slot / burst) mod N). With burst >= N, FIFO queues
 * stay synchronized on the same head destination and aggregate switch
 * throughput degenerates toward a single link (stationary blocking);
 * random-access buffers sustain full utilization. (With burst = 1 the
 * queues self-skew into a perfect schedule and even FIFO survives —
 * which is why the paper's example uses bursts.)
 */
class PeriodicBurstTraffic final : public TrafficGenerator
{
  public:
    /**
     * @param n Switch size.
     * @param load Arrival probability per input per slot.
     * @param seed PRNG seed.
     * @param burst Consecutive slots aimed at one output before rotating;
     *        0 (default) means n * n, comfortably past the
     *        self-synchronization horizon.
     */
    PeriodicBurstTraffic(int n, double load, uint64_t seed, int burst = 0);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

  private:
    double load_;
    int burst_;
    Xoshiro256 rng_;
};

/**
 * Hotspot workload: a fraction of all traffic converges on one output
 * (client-server in the extreme); the rest is uniform.
 */
class HotspotTraffic final : public TrafficGenerator
{
  public:
    HotspotTraffic(int n, double load, PortId hotspot,
                   double hotspot_fraction, uint64_t seed);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

  private:
    double load_;
    PortId hotspot_;
    double hotspot_fraction_;
    Xoshiro256 rng_;
};

/**
 * Trace replay: arrivals scripted as (slot, input, output) records, for
 * reproducing captured workloads or constructing adversarial patterns by
 * hand. Records may be given in any order; at most one cell per input
 * per slot is enforced (the input link carries one cell per slot).
 */
class TraceTraffic final : public TrafficGenerator
{
  public:
    /** One scripted arrival. */
    struct Record
    {
        SlotTime slot;
        PortId input;
        PortId output;
    };

    /**
     * @param n Switch size.
     * @param records The scripted arrivals (validated on construction).
     */
    TraceTraffic(int n, std::vector<Record> records);

    /**
     * Parse records from CSV text: one `slot,input,output` triple per
     * line; blank lines and lines starting with '#' are ignored.
     */
    static TraceTraffic fromCsv(int n, std::istream& in);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

    /** Total scripted records. */
    int64_t records() const { return static_cast<int64_t>(records_.size()); }

  private:
    std::vector<Record> records_;
    size_t cursor_ = 0;
    SlotTime last_slot_ = -1;
};

/**
 * Two-state on/off bursty workload: each input alternates between OFF and
 * ON; during an ON burst (geometric length, mean `mean_burst`), cells
 * arrive every slot for a single destination drawn at burst start. The
 * OFF period length is set so the long-run load matches `load`.
 */
class BurstyTraffic final : public TrafficGenerator
{
  public:
    BurstyTraffic(int n, double load, double mean_burst, uint64_t seed);

    void generate(SlotTime slot, std::vector<Cell>& out) override;

  private:
    struct State
    {
        bool on = false;
        PortId dest = 0;
    };

    double p_on_to_off_;   ///< per-slot probability an ON burst ends
    double p_off_to_on_;   ///< per-slot probability an OFF period ends
    std::vector<State> state_;
    Xoshiro256 rng_;
};

}  // namespace an2

#endif  // AN2_SIM_TRAFFIC_H
