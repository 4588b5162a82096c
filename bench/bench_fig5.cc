/**
 * @file
 * Figure 5: impact of the number of PIM iterations on queueing delay
 * under the uniform workload (16x16). The paper's findings: even one
 * iteration beats FIFO queueing; four iterations are within 0.5% of
 * running to completion.
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
        printSweepCliHelp(argv[0], "fig5", nullptr);
        return 2;
    }
    if (cli.help) {
        printSweepCliHelp(argv[0], "fig5", nullptr);
        return 0;
    }

    if (!acceptsFixedExperimentFlags(cli) || !acceptsSwitchSweepFlags(cli))
        return 2;
    harness::SweepSpec spec = fig5Spec();
    applyCli(cli, spec);
    applyArchOverride(cli, spec);

    // With --json - the document owns stdout; keep the table off it.
    const bool table = cli.json_path != "-";
    if (table) {
        banner("Figure 5 -- PIM delay vs offered load for 1..4 iterations",
               "Anderson et al. 1992, Figure 5 (uniform workload, 16x16)");
        std::printf("  delay in cell slots; 'inf' = run to completion\n\n");
    }

    try {
        harness::SweepResult res = runSweepWithProgress(spec, cli.threads);
        auto cells = harness::aggregate(spec, res);
        if (table) {
            printDelayTable(spec, cells);
            const harness::CellSummary* pim4 =
                findCell(cells, "PIM(4)", 0.99);
            const harness::CellSummary* piminf =
                findCell(cells, "PIM(inf)", 0.99);
            if (pim4 && piminf)
                std::printf("\n  PIM(4) vs PIM(complete) at 99%% load: "
                            "%.2f vs %.2f slots (paper: within 0.5%%)\n",
                            pim4->mean_delay.mean, piminf->mean_delay.mean);
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
