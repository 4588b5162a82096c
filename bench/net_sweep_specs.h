/**
 * @file
 * Network-scale sweep specifications (topo::Lan experiments), the
 * LAN-sized siblings of the single-switch specs in sweep_specs.h, plus
 * the registry and CLI glue `an2_sweep` uses to run them.
 */
#ifndef AN2_BENCH_NET_SWEEP_SPECS_H
#define AN2_BENCH_NET_SWEEP_SPECS_H

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "an2/harness/cli.h"
#include "an2/obs/blackbox.h"
#include "an2/obs/recorder.h"
#include "an2/topo/net_metrics.h"
#include "an2/topo/net_sweep.h"
#include "sweep_specs.h"

namespace an2::bench {

// ---------------------------------------------------------------------------
// Topology axis values

inline topo::NetTopoSpec
fatTreeTopo(int k, int hosts_per_edge)
{
    return {"fat-tree(k=" + std::to_string(k) + ",h=" +
                std::to_string(hosts_per_edge) + ")",
            [k, hosts_per_edge] {
                return topo::Topology::fatTree(k, hosts_per_edge);
            }};
}

inline topo::NetTopoSpec
starTopo(int leaves, int hosts_per_leaf)
{
    return {"star(" + std::to_string(leaves) + "x" +
                std::to_string(hosts_per_leaf) + ")",
            [leaves, hosts_per_leaf] {
                return topo::Topology::star(leaves, hosts_per_leaf);
            }};
}

inline topo::NetTopoSpec
torusTopo(int rows, int cols, int hosts_per_switch)
{
    return {"torus(" + std::to_string(rows) + "x" + std::to_string(cols) +
                ")",
            [rows, cols, hosts_per_switch] {
                return topo::Topology::mesh(rows, cols, /*torus=*/true,
                                            hosts_per_switch);
            }};
}

inline topo::NetTopoSpec
randomRegularTopo(int switches, int degree, int hosts_per_switch,
                  uint64_t seed)
{
    return {"random-regular(" + std::to_string(switches) + ",d=" +
                std::to_string(degree) + ")",
            [switches, degree, hosts_per_switch, seed] {
                return topo::Topology::randomRegular(
                    switches, degree, hosts_per_switch, seed);
            }};
}

// ---------------------------------------------------------------------------
// The network-scale experiments

/**
 * netscale: a 16-ary fat-tree with 16 hosts per edge switch — 320
 * switches and 2048 hosts — under a uniform VBR+CBR traffic matrix.
 * The flagship scale test for the sharded engine: `--engine parallel`
 * and `--engine serial` produce byte-identical JSON.
 */
inline topo::NetSweepSpec
netScaleSpec()
{
    topo::NetSweepSpec spec;
    spec.name = "netscale";
    spec.description =
        "LAN-scale fat-tree (320 switches, 2048 hosts), uniform "
        "VBR+CBR matrix, delivered throughput vs offered load";
    spec.topos = {fatTreeTopo(16, 16)};
    spec.loads = {0.05, 0.10};
    spec.frames = 10;
    spec.base_seed = 2001;
    return spec;
}

/** netshape: campus star vs torus vs random regular at matched scale. */
inline topo::NetSweepSpec
netShapeSpec()
{
    topo::NetSweepSpec spec;
    spec.name = "netshape";
    spec.description = "topology shootout at ~64 hosts: star-of-stars "
                       "vs torus vs random 4-regular, uniform matrix";
    spec.topos = {starTopo(16, 4), torusTopo(4, 4, 4),
                  randomRegularTopo(16, 4, 4, /*seed=*/11)};
    spec.loads = {0.05, 0.10, 0.20};
    spec.frames = 20;
    spec.base_seed = 2002;
    return spec;
}

/** Registry entry for `an2_sweep --experiment NAME` (network flavor). */
struct NetExperiment
{
    const char* name;
    const char* blurb;
    topo::NetSweepSpec (*make)();
};

inline const std::vector<NetExperiment>&
netExperiments()
{
    static const std::vector<NetExperiment> kExperiments = {
        {"netscale", "LAN-scale fat-tree (320 sw / 2048 hosts), uniform",
         netScaleSpec},
        {"netshape", "star vs torus vs random-regular topology shootout",
         netShapeSpec},
    };
    return kExperiments;
}

inline const NetExperiment*
findNetExperiment(const std::string& name)
{
    for (const NetExperiment& e : netExperiments())
        if (name == e.name)
            return &e;
    return nullptr;
}

// ---------------------------------------------------------------------------
// CLI glue

/**
 * Overlay the shared CLI's overrides onto a net sweep spec. Throws
 * UsageError naming a flag the network experiments cannot honour: the
 * switch sweeps' own (a network's switches come from its topologies),
 * and --blackbox without --chaos, which alone arms the flight recorder.
 */
inline void
applyNetCli(const SweepCli& cli, topo::NetSweepSpec& spec)
{
    if (const char* flag = firstGiven(
            cli, {"--arch", "--size", "--slots", "--warmup", "--trace",
                  "--trace-arch", "--trace-capacity", "--snapshot",
                  "--snapshot-every"}))
        throw UsageError(std::string(flag) +
                         ": applies to switch experiments only");
    if (!cli.blackbox_path.empty() && !cli.chaos.enabled())
        throw UsageError("--blackbox: a network experiment arms the flight "
                         "recorder only under --chaos");
    if (cli.replicates > 0)
        spec.replicates = cli.replicates;
    if (cli.frames > 0)
        spec.frames = cli.frames;
    if (cli.seed_set)
        spec.base_seed = cli.seed;
    if (!cli.loads.empty())
        spec.loads = cli.loads;
    if (!cli.faults.empty())
        spec.faults = cli.faults;
    if (cli.chaos.enabled()) {
        // Chaos without restoration is just attrition; --chaos always
        // arms the CBR path restorer (default retry/backoff policy).
        spec.chaos = cli.chaos;
        spec.restore = true;
    }
}

/** Engine thread count from --engine / --threads (1 = serial loop). */
inline int
netEngineThreads(const SweepCli& cli)
{
    if (cli.engine == "serial")
        return 1;
    int t = cli.threads;
    if (t <= 0)
        t = static_cast<int>(std::thread::hardware_concurrency());
    t = std::max(t, 1);
    if (cli.engine == "parallel")
        t = std::max(t, 2);
    return t;
}

/** Print the delivered-throughput table (topologies as columns). */
inline void
printNetTable(const topo::NetSweepSpec& spec,
              const std::vector<topo::NetCellSummary>& cells)
{
    std::printf("  load");
    for (const topo::NetTopoSpec& t : spec.topos)
        std::printf("  %24s", t.name.c_str());
    std::printf("\n");
    for (size_t li = 0; li < spec.loads.size(); ++li) {
        std::printf("  %4.2f", spec.loads[li]);
        for (size_t ti = 0; ti < spec.topos.size(); ++ti)
            std::printf("  %24.4f",
                        cells[ti * spec.loads.size() + li].throughput.mean);
        std::printf("\n");
    }
    if (spec.replicates > 1)
        std::printf("\n  (%d replicates per cell; stddev/CI95 in the JSON "
                    "output)\n",
                    spec.replicates);
}

/**
 * Run a network experiment end to end for `an2_sweep`: sweep, table,
 * optional an2.netsweep.v1 JSON. Returns the process exit code.
 */
inline int
runNetExperimentInner(const topo::NetSweepSpec& spec, const SweepCli& cli,
                      int engine_threads)
{
    const bool table = cli.json_path != "-";
    if (table) {
        banner("an2_sweep -- " + spec.name + ": " + spec.description,
               "network sweep (" +
                   std::string(topo::patternName(spec.pattern)) +
                   " traffic matrix)");
        if (!spec.faults.empty())
            std::printf("  fault plan: %s\n", spec.faults.str().c_str());
        if (spec.chaos.enabled())
            std::printf("  chaos: %s (CBR path restoration armed)\n",
                        spec.chaos.str().c_str());
        std::printf("  delivered/injected throughput; %s engine\n\n",
                    engine_threads > 1 ? "sharded parallel" : "serial");
    }

    std::function<void(int, int)> progress;
    if (isatty(fileno(stderr)))
        progress = [](int done, int total) {
            std::fprintf(stderr, "\r  [%d/%d] runs complete", done, total);
            if (done == total)
                std::fprintf(stderr, "\n");
        };
    auto t0 = std::chrono::steady_clock::now();
    std::vector<topo::NetCellSummary> cells =
        topo::runNetSweep(spec, engine_threads, progress);
    auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "  %zu runs in %.2f s on %d engine thread(s)\n",
                 spec.topos.size() * spec.loads.size() *
                     static_cast<size_t>(spec.replicates),
                 std::chrono::duration<double>(t1 - t0).count(),
                 engine_threads);

    if (table)
        printNetTable(spec, cells);
    if (!cli.json_path.empty()) {
        std::string doc = topo::netSweepToJson(spec, cells);
        if (!writeTextFile(cli.json_path, doc, "an2.netsweep.v1"))
            return 1;
    }

    // --metrics / --metrics-prom: re-run the observed grid point (first
    // topology, highest load, replicate 0) sampling LanStats at frame
    // boundaries. The samples are byte-identical for any engine/thread
    // choice, so this doubles as the determinism check in CI.
    if (!cli.metrics_path.empty() || !cli.metrics_prom_path.empty()) {
        const int64_t every =
            cli.metrics_every > 0
                ? cli.metrics_every
                : static_cast<int64_t>(spec.net.switch_frame_slots);
        topo::LanMetricsSeries series(every);
        topo::observeNetPoint(spec, engine_threads, series);
        if (!cli.metrics_path.empty() &&
            !writeTextFile(cli.metrics_path, series.toJsonLines(),
                           "an2.metrics.v1"))
            return 1;
        if (!cli.metrics_prom_path.empty() &&
            !writeTextFile(cli.metrics_prom_path, series.toPrometheus(),
                           "metrics exposition"))
            return 1;
    }
    return 0;
}

/**
 * Run a network experiment end to end for `an2_sweep`. Under --chaos the
 * run is flown with a flight recorder: any invariant panic or engine
 * failure dumps an an2.blackbox.v1 post-mortem and prints the one-line
 * serial repro command before exiting nonzero.
 */
inline int
runNetExperiment(const NetExperiment& exp, const SweepCli& cli)
{
    topo::NetSweepSpec spec = exp.make();
    applyNetCli(cli, spec);
    const int engine_threads = netEngineThreads(cli);

    if (!spec.chaos.enabled())
        return runNetExperimentInner(spec, cli, engine_threads);

    // Chaos flight recorder. The panic hook covers invariants tripped on
    // this thread; failures rethrown from engine workers land in the
    // catch below and dump manually. Either way the newest post-mortem
    // is on disk next to a command that replays the exact run serially.
    obs::Recorder recorder{obs::RecorderConfig{}};
    obs::BlackboxConfig bb_cfg;
    bb_cfg.dump_on_fault = false;  // chaos churn is scripted, not fatal
    bb_cfg.path = cli.blackbox_path.empty() ? "an2_chaos_blackbox.json"
                                            : cli.blackbox_path;
    obs::Blackbox box(recorder, nullptr, bb_cfg);
    try {
        return runNetExperimentInner(spec, cli, engine_threads);
    } catch (const std::exception& e) {
        box.dump(e.what(), 0);
        std::fprintf(stderr,
                     "an2_sweep: chaos run failed: %s\n"
                     "  post-mortem: %s\n"
                     "  repro: an2_sweep --experiment %s --chaos '%s' "
                     "--seed %llu --frames %lld --engine serial\n",
                     e.what(), bb_cfg.path.c_str(), spec.name.c_str(),
                     spec.chaos.str().c_str(),
                     static_cast<unsigned long long>(spec.base_seed),
                     static_cast<long long>(spec.frames));
        return 1;
    }
}

}  // namespace an2::bench

#endif  // AN2_BENCH_NET_SWEEP_SPECS_H
