/**
 * @file
 * Figure 4: mean queueing delay vs offered load under the client-server
 * workload. Four of sixteen ports are servers; client-client connections
 * carry only 5% of the traffic of connections involving a server; the
 * load axis is the offered load on a *server* link. The paper's claim:
 * same qualitative ordering as Figure 3, with PIM even closer to output
 * queueing than in the uniform case.
 *
 * Runs on the parallel deterministic sweep harness: `--threads N`
 * changes wall-clock only, never results; `--json PATH` emits the
 * an2.sweep.v1 document (see EXPERIMENTS.md).
 */
#include <cstdio>

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
        printSweepCliHelp(argv[0], "fig4", nullptr);
        return 2;
    }
    if (cli.help) {
        printSweepCliHelp(argv[0], "fig4", nullptr);
        return 0;
    }

    if (!acceptsFixedExperimentFlags(cli) || !acceptsSwitchSweepFlags(cli))
        return 2;
    harness::SweepSpec spec = fig4Spec();
    applyCli(cli, spec);
    applyArchOverride(cli, spec);

    // With --json - the document owns stdout; keep the table off it.
    const bool table = cli.json_path != "-";
    if (table) {
        banner("Figure 4 -- delay vs offered load, client-server workload",
               "Anderson et al. 1992, Figure 4 (16x16, 4 servers, 5% ratio)");
        std::printf("  load = offered load on a server link; delay in"
                    " slots\n\n");
    }

    try {
        harness::SweepResult res = runSweepWithProgress(spec, cli.threads);
        auto cells = harness::aggregate(spec, res);
        if (table) {
            printDelayTable(spec, cells);
            if (cli.arch.empty())
                std::printf("\n  Expected: FIFO head-of-line limited; PIM "
                            "close to OutputQ (closer than Fig 3).\n");
        }

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
