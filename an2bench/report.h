/**
 * @file
 * What one an2bench workload run reports, and the helpers every workload
 * shares: options, host memory, order statistics, the JSON result line.
 */
#ifndef AN2BENCH_REPORT_H
#define AN2BENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace an2bench {

/** Command-line options of one workload run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;  ///< host time the measured interval lasts
    bool trace = false;     ///< record spans and report per-layer metrics
    std::string spans_path; ///< where the traced run writes its spans
};

/** A number with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result of one workload run. */
struct Report
{
    /** Metrics a user of the simulator sees (host and simulated time). */
    std::vector<Metric> end_to_end;

    /** Per-layer metrics; filled by traced runs only. */
    std::vector<Metric> per_layer;

    /**
     * Simulated statistics at the workload's fixed horizon. They are a
     * pure function of the seed, so two runs of one seed (traced or not,
     * any engine thread count) must report them bit for bit.
     */
    std::vector<Metric> simulated;

    /** Run facts that are not metrics (warmup length, span counts). */
    std::vector<Metric> info;

    int64_t checks_attempted = 0;
    std::vector<std::string> check_failures;

    /** Count one correctness check; remember `what` when it fails. */
    void check(bool ok, const std::string& what);

    /** Append a metric to `end_to_end`, `per_layer` or `simulated`. */
    static void add(std::vector<Metric>& to, const std::string& name,
                    double value, const std::string& unit);
};

/**
 * Host timings are reported from the least-disturbed end of their samples:
 * rates (per interval of a single-switch run, per frame of a LAN run) at
 * this quantile, set-up times at 1 - kSteadyQuantile. A 250-interval run
 * leaves a dozen samples beyond it. Other load on a shared host only ever
 * slows a sample down, and on such a host the rate quantile moved less
 * than half as much between 25 s windows of one run as the median did.
 */
constexpr double kSteadyQuantile = 0.95;

/**
 * Whether a burst of set-ups times one more: at least five, and until the
 * burst spans half a second, so that it samples the host over a stretch
 * of time, as the rate intervals do, rather than one instant.
 */
inline bool
setupAgain(size_t done, int64_t span_ns)
{
    return done < 5 || span_ns < 500'000'000;
}

/** Peak resident set of this process (VmHWM), in MiB. */
double peakRssMb();

/** Current resident set of this process (VmRSS), in MiB. */
double currentRssMb();

/** The q-quantile (0..1, linear interpolation) of `v`; 0 when empty. */
double quantile(std::vector<double> v, double q);

/** Print the run as one JSON object on one line of stdout. */
void printReport(const RunOptions& opt, const Report& report);

}  // namespace an2bench

#endif  // AN2BENCH_REPORT_H
