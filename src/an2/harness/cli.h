/**
 * @file
 * The command-line vocabulary shared by `an2_sweep` and the
 * harness-backed bench binaries (`--json`, `--threads`, `--replicates`,
 * `--faults`, ...).
 *
 * Parsing is strict: an unknown flag or a malformed numeric value is an
 * error naming the offending token, never a silent zero (the atoi-based
 * predecessor accepted `--threads banana` as 0). Numeric values must
 * consume their whole token and fit their type; fault specs are parsed
 * through fault::FaultPlan::parse, whose errors also quote the bad
 * token. A flag given more than once is an error naming the flag —
 * last-wins would silently discard one of two conflicting values.
 */
#ifndef AN2_HARNESS_CLI_H
#define AN2_HARNESS_CLI_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "an2/fault/chaos.h"
#include "an2/fault/fault_plan.h"
#include "an2/harness/sweep.h"

namespace an2::harness {

/** Options common to `an2_sweep` and the harness-backed bench binaries. */
struct SweepCli
{
    std::string experiment;       ///< an2_sweep only
    std::string json_path;        ///< write sweep JSON here if non-empty
    int threads = 0;              ///< 0 = hardware concurrency
    int replicates = 0;           ///< 0 = keep spec default
    long long slots = 0;          ///< 0 = keep spec default
    long long warmup = -1;        ///< -1 = keep spec default
    uint64_t seed = 0;
    bool seed_set = false;
    std::vector<double> loads;    ///< empty = keep spec default
    int size = 0;                 ///< 0 = keep spec default
    long long frames = 0;         ///< 0 = keep spec default (net sweeps)
    bool list = false;
    bool help = false;

    /** Architecture override (--arch NAME): "" keeps the spec's archs;
        otherwise a registry name (harness/arch.h), already validated,
        that replaces the arch axis. */
    std::string arch;

    /** Fault scenario (--faults SPEC), already validated by parse. */
    fault::FaultPlan faults;
    std::string faults_spec;      ///< the raw spec, for reporting

    /**
     * Seeded chaos churn (--chaos 'chaos(SEED,RATE,KINDS)'): expanded
     * into a concrete FaultPlan per run and driven with CBR path
     * restoration enabled (network experiments only). Same spec, same
     * run => same plan, byte-identical on any thread count.
     */
    fault::ChaosSpec chaos;
    std::string chaos_spec;       ///< the raw spec, for reporting

    // Observability (an2_sweep): re-run one grid point with a Recorder
    // attached after the sweep. The sweep results themselves are
    // untouched — worker threads never observe.
    std::string trace_path;          ///< write an2.trace.v1 here
    std::string snapshot_path;       ///< write an2.snapshot.v1 lines here
    std::string trace_arch;          ///< arch to observe ("" = auto)
    long long trace_capacity = 1 << 16;  ///< event-ring size
    int snapshot_every = 0;          ///< 0 = default (1000) when snapshotting

    // Telemetry (an2_sweep): metrics time series and flight recorder for
    // the same observed grid point (or, for network experiments, for an
    // observed run of the first topology at the highest load).
    std::string metrics_path;        ///< write an2.metrics.v1 JSON lines
    std::string metrics_prom_path;   ///< write Prometheus text exposition
    int metrics_every = 0;           ///< 0 = default (1000 slots / 1 frame)
    std::string blackbox_path;       ///< arm flight recorder, dump here

    /** Every flag given, as `--name` without its `=value`. Each front
        end parses the whole vocabulary, so it names and rejects the
        flags it cannot honour (firstGiven) instead of ignoring them. */
    std::vector<std::string> given;
};

/** The first of `flags` that `cli` was given, or nullptr. */
const char* firstGiven(const SweepCli& cli,
                       std::initializer_list<const char*> flags);

/**
 * Print the option summary for `prog` to stdout: the flags every sweep
 * takes, then the switch sweeps' own if `switch_experiments` names them
 * and the network experiments' own if `network_experiments` does. A
 * front end that runs both kinds (an2_sweep) also lists --experiment
 * and --list, and heads each group with its experiments' names.
 */
void printSweepCliHelp(const char* prog, const char* switch_experiments,
                       const char* network_experiments);

/**
 * Parse a comma-separated load list (each in (0, 1]) into `out`.
 * Returns false with `err` naming the offending token on failure.
 */
bool parseLoadList(const char* arg, std::vector<double>& out,
                   std::string& err);

/**
 * Parse argv into `cli`. Returns false with a diagnostic in `err` —
 * naming the unknown flag or the malformed value — on failure.
 */
bool parseSweepCli(int argc, char** argv, SweepCli& cli, std::string& err);

/** Overlay the CLI's overrides onto a sweep spec. */
void applyCli(const SweepCli& cli, SweepSpec& spec);

}  // namespace an2::harness

#endif  // AN2_HARNESS_CLI_H
