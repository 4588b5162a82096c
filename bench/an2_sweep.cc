/**
 * @file
 * an2_sweep — run any registered experiment sweep on the parallel
 * deterministic harness and emit a table plus optional an2.sweep.v1
 * JSON (`--json`). The JSON is byte-identical for any `--threads`
 * value; see EXPERIMENTS.md for the schema and the seeding scheme.
 *
 *     an2_sweep --list
 *     an2_sweep --experiment fig3 --threads 8 --json BENCH_fig3.json
 *     an2_sweep --experiment fig5 --replicates 5 --loads 0.9,0.95,0.99
 *
 * Network-scale experiments (whole topologies on topo::Lan) live in the
 * same registry namespace and speak the same flags, plus `--frames` and
 * `--engine serial|parallel`:
 *
 *     an2_sweep --experiment netscale --engine parallel --threads 8 \
 *               --json BENCH_netscale.json
 */
#include <cstdio>

#include "net_sweep_specs.h"
#include "sweep_specs.h"

int
main(int argc, char** argv)
{
    using namespace an2;
    using namespace an2::bench;

    SweepCli cli;
    std::string err;
    if (!parseSweepCli(argc, argv, cli, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        printSweepCliHelp(argv[0], /*with_experiment=*/true);
        return 2;
    }
    if (cli.help) {
        printSweepCliHelp(argv[0], /*with_experiment=*/true);
        return 0;
    }
    if (cli.list) {
        std::printf("available experiments:\n");
        for (const Experiment& e : experiments())
            std::printf("  %-8s %s\n", e.name, e.blurb);
        for (const NetExperiment& e : netExperiments())
            std::printf("  %-8s %s\n", e.name, e.blurb);
        return 0;
    }
    if (cli.experiment.empty()) {
        std::fprintf(stderr,
                     "error: --experiment NAME required (--list shows "
                     "choices)\n");
        return 2;
    }
    if (const NetExperiment* net = findNetExperiment(cli.experiment)) {
        try {
            return runNetExperiment(*net, cli);
        } catch (const UsageError& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    const Experiment* exp = findExperiment(cli.experiment);
    if (!exp) {
        std::fprintf(stderr, "error: unknown experiment '%s' (--list shows "
                             "choices)\n",
                     cli.experiment.c_str());
        return 2;
    }

    if (!acceptsSwitchSweepFlags(cli))
        return 2;
    harness::SweepSpec spec = exp->make();
    applyCli(cli, spec);
    applyArchOverride(cli, spec);

    // With --json - the document owns stdout; keep the table off it.
    const bool table = cli.json_path != "-";
    if (table) {
        banner("an2_sweep -- " + spec.name + ": " + spec.description,
               "harness sweep (" + spec.workload + " workload)");
        if (!spec.faults.empty())
            std::printf("  fault plan: %s\n", spec.faults.str().c_str());
        std::printf("  mean queueing delay in cell slots\n\n");
    }

    try {
        harness::SweepResult res = runSweepWithProgress(spec, cli.threads);
        auto cells = harness::aggregate(spec, res);
        if (table)
            printDelayTable(spec, cells);
        if (!cli.json_path.empty() &&
            !writeTextFile(cli.json_path, harness::sweepToJson(spec, cells),
                           "an2.sweep.v1"))
            return 1;
        if (wantsObservedRun(cli) && !runObservedPoint(spec, cli))
            return 1;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return 0;
}
