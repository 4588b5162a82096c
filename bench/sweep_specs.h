/**
 * @file
 * Harness sweep specifications for the paper's delay-vs-load experiments
 * (Figures 3-5), shared by the `an2_sweep` CLI and the per-figure bench
 * binaries, plus the small command-line vocabulary they all speak
 * (`--json`, `--threads`, `--replicates`, ...).
 */
#ifndef AN2_BENCH_SWEEP_SPECS_H
#define AN2_BENCH_SWEEP_SPECS_H

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "an2/fault/injector.h"
#include "an2/harness/aggregate.h"
#include "an2/harness/arch.h"
#include "an2/harness/cli.h"
#include "an2/harness/sweep.h"
#include "an2/obs/blackbox.h"
#include "an2/obs/recorder.h"
#include "an2/obs/timeseries.h"
#include "an2/obs/trace_export.h"
#include "bench_common.h"

namespace an2::bench {

// ---------------------------------------------------------------------------
// Workload factories (architectures come by name from harness/arch.h)

inline harness::TrafficFactory
uniformWorkload()
{
    return [](int n, double load, uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
}

inline harness::TrafficFactory
clientServerWorkload(int servers)
{
    return [servers](int n, double load, uint64_t seed) {
        return std::make_unique<ClientServerTraffic>(n, servers, load, seed);
    };
}

/** Uniform arrivals with a CBR/VBR/best-effort class mix per flow. */
inline harness::TrafficFactory
multiClassWorkload()
{
    return [](int n, double load, uint64_t seed) {
        return std::make_unique<MultiClassUniformTraffic>(n, load, seed);
    };
}

// ---------------------------------------------------------------------------
// The paper's experiments as sweep specs

/** Figure 3: FIFO vs PIM(4) vs output queueing, uniform workload. */
inline harness::SweepSpec
fig3Spec()
{
    harness::SweepSpec spec;
    spec.name = "fig3";
    spec.description =
        "mean queueing delay vs offered load, uniform workload, 16x16";
    spec.workload = "uniform";
    spec.archs = harness::archsByName({"FIFO", "PIM(4)", "OutputQueued"});
    spec.loads.assign(kLoadSweep, kLoadSweep + kLoadSweepSize);
    spec.base_seed = 1003;
    spec.make_traffic = uniformWorkload();
    return spec;
}

/** Figure 4: same comparison under the client-server workload. */
inline harness::SweepSpec
fig4Spec()
{
    harness::SweepSpec spec;
    spec.name = "fig4";
    spec.description = "delay vs offered server-link load, client-server "
                       "workload, 16x16, 4 servers, 5% client-client ratio";
    spec.workload = "client-server(4)";
    spec.archs = harness::archsByName({"FIFO", "PIM(4)", "OutputQueued"});
    spec.loads.assign(kLoadSweep, kLoadSweep + kLoadSweepSize);
    spec.base_seed = 1004;
    spec.make_traffic = clientServerWorkload(4);
    return spec;
}

/** Figure 5: PIM iteration count 1..4 and to-completion, plus FIFO. */
inline harness::SweepSpec
fig5Spec()
{
    harness::SweepSpec spec;
    spec.name = "fig5";
    spec.description =
        "PIM delay vs offered load for 1..4 iterations, uniform, 16x16";
    spec.workload = "uniform";
    spec.archs = harness::archsByName(
        {"PIM(1)", "PIM(2)", "PIM(3)", "PIM(4)", "PIM(inf)", "FIFO"});
    spec.loads.assign(kLoadSweep, kLoadSweep + kLoadSweepSize);
    spec.base_seed = 1005;
    spec.make_traffic = uniformWorkload();
    return spec;
}

/**
 * Latency-distribution study: PIM(1) vs PIM(4) vs iSLIP(4) on the
 * Figure 3 workload at the loads where the p99 knee appears. Meant to
 * be driven with `--metrics` (the sweep itself reports means; the
 * distributions come from the observed run's latency histograms).
 */
inline harness::SweepSpec
latdistSpec()
{
    harness::SweepSpec spec;
    spec.name = "latdist";
    spec.description = "delivery-latency distributions (p50/p99/p999), "
                       "uniform workload, 16x16";
    spec.workload = "uniform";
    spec.archs = harness::archsByName({"PIM(1)", "PIM(4)", "iSLIP(4)"});
    spec.loads = {0.50, 0.90, 0.99};
    spec.base_seed = 1008;
    spec.make_traffic = uniformWorkload();
    return spec;
}

/**
 * Speedup study: CIOQ at S = 1/2/4 with the greedy maximal matcher vs
 * the ideal output-queued switch, multi-class uniform workload. The
 * headline (Cogill & Lall) is that S = 2 already tracks output
 * queueing; S = 1 shows the input-queued gap, S = 4 buys almost
 * nothing over S = 2.
 */
inline harness::SweepSpec
speedupSpec()
{
    harness::SweepSpec spec;
    spec.name = "speedup";
    spec.description = "CIOQ crossbar speedup 1/2/4 vs output queueing, "
                       "multi-class uniform workload, 16x16";
    spec.workload = "uniform3";
    spec.archs = harness::archsByName({"OutputQueued", "CIOQ(S=1,strict)",
                                       "CIOQ(S=2,strict)",
                                       "CIOQ(S=4,strict)"});
    spec.loads.assign(kLoadSweep, kLoadSweep + kLoadSweepSize);
    spec.base_seed = 1010;
    spec.make_traffic = multiClassWorkload();
    return spec;
}

/** Registry entry for `an2_sweep --experiment NAME`. */
struct Experiment
{
    const char* name;
    const char* blurb;
    harness::SweepSpec (*make)();
};

inline const std::vector<Experiment>&
experiments()
{
    static const std::vector<Experiment> kExperiments = {
        {"fig3", "Figure 3: FIFO vs PIM(4) vs OutputQ, uniform", fig3Spec},
        {"fig4", "Figure 4: FIFO vs PIM(4) vs OutputQ, client-server",
         fig4Spec},
        {"fig5", "Figure 5: PIM iterations 1..4/inf vs FIFO, uniform",
         fig5Spec},
        {"latdist",
         "latency distributions: PIM(1)/PIM(4)/iSLIP(4), uniform",
         latdistSpec},
        {"speedup",
         "CIOQ speedup 1/2/4 vs OutputQ, multi-class uniform",
         speedupSpec},
    };
    return kExperiments;
}

inline const Experiment*
findExperiment(const std::string& name)
{
    for (const Experiment& e : experiments())
        if (name == e.name)
            return &e;
    return nullptr;
}

// ---------------------------------------------------------------------------
// Shared command line — the strict parser lives in an2/harness/cli.h;
// re-exported here so the bench binaries keep their unqualified names.

using harness::SweepCli;
using harness::applyCli;

/**
 * Apply the `--arch NAME` override: replace the experiment's
 * architecture axis with the one registry arch the name denotes, and
 * stamp a CIOQ name's speedup and service into the JSON meta. The
 * workload, loads and seeding stay the spec's own, so the arch faces the
 * same arrivals as the archs it replaces. No-op when --arch was not
 * given (parseSweepCli already rejected names the registry does not
 * know).
 */
inline void
applyArchOverride(const SweepCli& cli, harness::SweepSpec& spec)
{
    if (cli.arch.empty())
        return;
    harness::ArchSpec arch = harness::archByName(cli.arch);
    spec.speedup = arch.speedup;
    spec.service = arch.service;
    spec.archs = {std::move(arch)};
}

using harness::firstGiven;
using harness::parseLoadList;
using harness::parseSweepCli;
using harness::printSweepCliHelp;

/**
 * Each front end honours every flag it parses or rejects it, printing
 * an error that names the flag; these return false when the caller
 * should exit 2. A switch sweep rejects the network experiments'
 * --frames, --engine and --chaos.
 */
inline bool
acceptsSwitchSweepFlags(const SweepCli& cli)
{
    const char* flag = firstGiven(cli, {"--frames", "--engine", "--chaos"});
    if (flag)
        std::fprintf(stderr,
                     "error: %s: applies to network experiments only\n",
                     flag);
    return flag == nullptr;
}

/** A binary that runs one fixed experiment rejects --experiment and
    --list. */
inline bool
acceptsFixedExperimentFlags(const SweepCli& cli)
{
    const char* flag = firstGiven(cli, {"--experiment", "--list"});
    if (flag)
        std::fprintf(stderr,
                     "error: %s: this binary runs one experiment; an2_sweep "
                     "runs any\n",
                     flag);
    return flag == nullptr;
}

/** True when an observation flag asks for runObservedPoint after the
    sweep. */
inline bool
wantsObservedRun(const SweepCli& cli)
{
    return !cli.trace_path.empty() || !cli.snapshot_path.empty() ||
           !cli.metrics_path.empty() || !cli.metrics_prom_path.empty() ||
           !cli.blackbox_path.empty();
}

// ---------------------------------------------------------------------------
// Execution and reporting helpers

/** Run the sweep with a live run-counter on stderr; reports wall time. */
inline harness::SweepResult
runSweepWithProgress(const harness::SweepSpec& spec, int threads,
                     double* wall_seconds = nullptr)
{
    auto t0 = std::chrono::steady_clock::now();
    // The carriage-return ticker is for humans; skip it when stderr is
    // piped (e.g. into bench_output.txt).
    std::function<void(int, int)> progress;
    if (isatty(fileno(stderr)))
        progress = [](int done, int total) {
            std::fprintf(stderr, "\r  [%d/%d] runs complete", done, total);
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    harness::SweepResult res = harness::runSweep(spec, threads, progress);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (wall_seconds)
        *wall_seconds = secs;
    std::fprintf(stderr, "  %zu runs in %.2f s on %d thread(s)\n",
                 res.grid.size(), secs, res.threads_used);
    return res;
}

/** True when the spec's architecture axis holds `arch`. */
inline bool
hasArch(const harness::SweepSpec& spec, const std::string& arch)
{
    for (const harness::ArchSpec& a : spec.archs)
        if (a.name == arch)
            return true;
    return false;
}

/** Cell lookup by (arch name, load); size defaults to the spec's first. */
inline const harness::CellSummary*
findCell(const std::vector<harness::CellSummary>& cells,
         const std::string& arch, double load)
{
    for (const harness::CellSummary& c : cells)
        if (c.arch == arch && c.load == load)
            return &c;
    return nullptr;
}

/** Print the classic delay-vs-load table (archs as columns) from cells. */
inline void
printDelayTable(const harness::SweepSpec& spec,
                const std::vector<harness::CellSummary>& cells)
{
    std::printf("  load");
    for (const harness::ArchSpec& a : spec.archs)
        std::printf("  %10s", a.name.c_str());
    std::printf("\n");
    for (double load : spec.loads) {
        std::printf("  %4.2f", load);
        for (const harness::ArchSpec& a : spec.archs) {
            const harness::CellSummary* c = findCell(cells, a.name, load);
            std::printf("  %10.2f", c ? c->mean_delay.mean : -1.0);
        }
        std::printf("\n");
    }
    if (spec.replicates > 1)
        std::printf("\n  (%d replicates per cell; stddev/CI95 in the JSON "
                    "output)\n",
                    spec.replicates);
}

// ---------------------------------------------------------------------------
// Observed single runs (--trace / --snapshot)

/**
 * Re-run one grid point of `spec` with an obs::Recorder attached and
 * write the requested an2.trace.v1 / an2.snapshot.v1 files. The sweep
 * proper never observes (worker threads run unattached), so this extra
 * serial run is what `--trace` / `--snapshot` pay for.
 *
 * Point selection: the architecture named by `--trace-arch` (default:
 * the first arch with a matcher, i.e. whose name starts with PIM/iSLIP/
 * Greedy/CIOQ; else the first arch), at the first size, the highest
 * load, replicate 0 — narrow with `--size` / `--loads` to steer it.
 * Every arch carries the probes, so `--trace-arch OutputQueued`
 * observes perfect output queueing and `--trace-arch FIFO` the
 * head-of-line baseline. Seeds come from the same expandGrid()
 * derivation as the sweep, so the observed run is bit-identical to the
 * corresponding sweep run.
 */
inline bool
runObservedPoint(const harness::SweepSpec& spec, const SweepCli& cli)
{
    int arch = -1;
    if (!cli.trace_arch.empty()) {
        for (size_t k = 0; k < spec.archs.size(); ++k)
            if (spec.archs[k].name == cli.trace_arch)
                arch = static_cast<int>(k);
        if (arch < 0) {
            std::fprintf(stderr,
                         "error: --trace-arch %s: not in this experiment "
                         "(archs:",
                         cli.trace_arch.c_str());
            for (const harness::ArchSpec& a : spec.archs)
                std::fprintf(stderr, " %s", a.name.c_str());
            std::fprintf(stderr, ")\n");
            return false;
        }
    } else {
        for (size_t k = 0; k < spec.archs.size() && arch < 0; ++k) {
            const std::string& nm = spec.archs[k].name;
            if (nm.rfind("PIM", 0) == 0 || nm.rfind("iSLIP", 0) == 0 ||
                nm.rfind("Greedy", 0) == 0 || nm.rfind("CIOQ", 0) == 0)
                arch = static_cast<int>(k);
        }
        if (arch < 0)
            arch = 0;
    }

    const harness::RunPoint* pt = nullptr;
    std::vector<harness::RunPoint> grid = harness::expandGrid(spec);
    for (const harness::RunPoint& p : grid)
        if (p.arch_index == arch && p.size_index == 0 &&
            p.load_index == static_cast<int>(spec.loads.size()) - 1 &&
            p.replicate == 0)
            pt = &p;
    if (!pt) {
        std::fprintf(stderr, "error: empty sweep grid\n");
        return false;
    }

    const int n = spec.sizes[0];
    const double load = spec.loads[static_cast<size_t>(pt->load_index)];
    const bool want_metrics =
        !cli.metrics_path.empty() || !cli.metrics_prom_path.empty();
    obs::RecorderConfig rc;
    rc.trace_capacity = cli.trace_path.empty() && cli.blackbox_path.empty()
                            ? 0
                            : static_cast<size_t>(cli.trace_capacity);
    rc.snapshot_every =
        cli.snapshot_path.empty()
            ? 0
            : (cli.snapshot_every > 0 ? cli.snapshot_every : 1000);
    rc.ports = n;
    rc.track_latency = want_metrics;
    rc.metrics_every =
        want_metrics ? (cli.metrics_every > 0 ? cli.metrics_every : 1000)
                     : 0;
    obs::Recorder rec(rc);

    std::fprintf(stderr,
                 "  observing %s n=%d load=%.2f for %lld slots "
                 "(run %d, switch seed %llu, traffic seed %llu)\n",
                 spec.archs[static_cast<size_t>(arch)].name.c_str(), n,
                 load, static_cast<long long>(spec.slots), pt->run_index,
                 static_cast<unsigned long long>(pt->switch_seed),
                 static_cast<unsigned long long>(pt->traffic_seed));

    obs::attach(&rec);
    auto sw = spec.archs[static_cast<size_t>(arch)].make(n,
                                                         pt->switch_seed);
    auto traffic = spec.make_traffic(n, load, pt->traffic_seed);
    SimConfig sim;
    sim.slots = spec.slots;
    sim.warmup = spec.warmup;
    // Same fault scenario and fault seed as the corresponding sweep
    // run, so the observed run (and its trace's fault spans) replays
    // that run exactly.
    std::unique_ptr<fault::FaultInjector> injector;
    if (!spec.faults.empty()) {
        spec.faults.validatePorts(n);
        injector = std::make_unique<fault::FaultInjector>(n, spec.faults,
                                                          pt->fault_seed);
        sim.faults = injector.get();
    }
    // Flight recorder: dumps on invariant panic (hook) and, when the
    // scenario scripts port/link deaths, on each death event.
    std::unique_ptr<obs::Blackbox> blackbox;
    if (!cli.blackbox_path.empty()) {
        obs::BlackboxConfig bc;
        bc.path = cli.blackbox_path;
        blackbox = std::make_unique<obs::Blackbox>(rec, sw.get(), bc);
        if (injector)
            injector->addListener(blackbox.get());
    }
    try {
        runSimulation(*sw, *traffic, sim);
    } catch (const InternalError& e) {
        obs::detach();
        std::fprintf(stderr, "error: invariant fired: %s\n", e.what());
        if (blackbox && blackbox->dumps() > 0)
            std::fprintf(stderr, "  blackbox post-mortem written to %s\n",
                         cli.blackbox_path.c_str());
        return false;
    }
    rec.sampleMetricsNow(spec.slots);  // flush the final partial window
    obs::detach();

    std::fprintf(stderr, "  observed counters:\n");
    for (int c = 0; c < static_cast<int>(obs::Counter::kCount); ++c)
        std::fprintf(stderr, "    %-22s %lld\n",
                     obs::counterName(static_cast<obs::Counter>(c)),
                     static_cast<long long>(
                         rec.counter(static_cast<obs::Counter>(c))));
    if (rec.tracing() && rec.droppedEvents() > 0)
        std::fprintf(stderr,
                     "    (event ring dropped %lld oldest events; raise "
                     "--trace-capacity to keep more)\n",
                     static_cast<long long>(rec.droppedEvents()));

    if (rec.latencyEnabled()) {
        std::fprintf(stderr, "  delivery latency (slots):\n");
        static const char* kClsNames[kNumTrafficClasses] = {"cbr", "vbr",
                                                            "be"};
        for (int cls = 0; cls < kNumTrafficClasses; ++cls) {
            const LogHistogram& h = rec.latencyHistogram(
                static_cast<TrafficClass>(cls));
            std::fprintf(stderr,
                         "    %s: count=%lld p50=%lld p99=%lld p999=%lld "
                         "max=%lld\n",
                         kClsNames[cls],
                         static_cast<long long>(h.count()),
                         static_cast<long long>(h.quantile(0.50)),
                         static_cast<long long>(h.quantile(0.99)),
                         static_cast<long long>(h.quantile(0.999)),
                         static_cast<long long>(h.max()));
        }
    }

    bool ok = true;
    if (!cli.trace_path.empty())
        ok = writeTextFile(cli.trace_path, obs::toChromeTraceJson(rec),
                           "an2.trace.v1") &&
             ok;
    if (!cli.snapshot_path.empty())
        ok = writeTextFile(cli.snapshot_path, rec.snapshotLines(),
                           "an2.snapshot.v1") &&
             ok;
    if (!cli.metrics_path.empty())
        ok = writeTextFile(cli.metrics_path, obs::metricsToJsonLines(rec),
                           "an2.metrics.v1") &&
             ok;
    if (!cli.metrics_prom_path.empty())
        ok = writeTextFile(cli.metrics_prom_path,
                           obs::metricsToPrometheus(rec),
                           "prometheus metrics") &&
             ok;
    if (blackbox && blackbox->dumps() > 0)
        std::fprintf(stderr, "  blackbox: %lld dump(s), latest in %s\n",
                     static_cast<long long>(blackbox->dumps()),
                     cli.blackbox_path.c_str());
    return ok;
}

}  // namespace an2::bench

#endif  // AN2_BENCH_SWEEP_SPECS_H
