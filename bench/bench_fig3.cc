/**
 * @file
 * Figure 3: mean queueing delay vs offered load under the uniform
 * workload, for FIFO queueing, parallel iterative matching (4
 * iterations), and perfect output queueing on a 16x16 switch.
 *
 * Expected shape: all three agree at low load; FIFO saturates near 60%
 * (head-of-line blocking); PIM tracks output queueing to ~99% load with
 * a modest delay gap. The paper's wall-clock claim — an average delay
 * under 13 us at 95% load with gigabit links — is checked by converting
 * slots to microseconds (424 ns per 53-byte cell at 1 Gb/s).
 *
 * Runs on the parallel deterministic sweep harness: `--threads N`
 * changes wall-clock only, never results; `--json PATH` emits the
 * an2.sweep.v1 document (see EXPERIMENTS.md).
 */
#include <cstdio>

#include "an2/base/types.h"
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
        printSweepCliHelp(argv[0], /*with_experiment=*/false);
        return 2;
    }
    if (cli.help) {
        printSweepCliHelp(argv[0], /*with_experiment=*/false);
        return 0;
    }

    if (!acceptsFixedExperimentFlags(cli) || !acceptsSwitchSweepFlags(cli))
        return 2;
    harness::SweepSpec spec = fig3Spec();
    applyCli(cli, spec);
    applyArchOverride(cli, spec);

    // With --json - the document owns stdout; keep the table off it. The
    // paper's three-column table needs the paper's three archs; any other
    // axis (--arch) gets the generic delay table.
    const bool table = cli.json_path != "-";
    const bool paper_axis = hasArch(spec, "FIFO") &&
                            hasArch(spec, "PIM(4)") &&
                            hasArch(spec, "OutputQueued");
    if (table) {
        banner("Figure 3 -- mean queueing delay vs offered load, uniform "
               "workload",
               "Anderson et al. 1992, Figure 3 (16x16 switch)");
        if (paper_axis) {
            std::printf("  delay in cell slots; FIFO throughput shown to "
                        "expose saturation\n\n");
            std::printf("  load     FIFO        PIM(4)      OutputQ     "
                        "[FIFO tput]\n");
        } else {
            std::printf("  delay in cell slots\n\n");
        }
    }

    try {
        harness::SweepResult res = runSweepWithProgress(spec, cli.threads);
        auto cells = harness::aggregate(spec, res);

        if (table && paper_axis) {
            for (double load : spec.loads) {
                const harness::CellSummary* fifo =
                    findCell(cells, "FIFO", load);
                const harness::CellSummary* pim =
                    findCell(cells, "PIM(4)", load);
                const harness::CellSummary* oq =
                    findCell(cells, "OutputQueued", load);
                std::printf("  %4.2f  %9.2f   %9.2f   %9.2f      %5.3f\n",
                            load, fifo->mean_delay.mean,
                            pim->mean_delay.mean, oq->mean_delay.mean,
                            fifo->throughput.mean);
            }
        } else if (table) {
            printDelayTable(spec, cells);
        }
        const harness::CellSummary* pim_95 = findCell(cells, "PIM(4)", 0.95);
        if (table && pim_95)
            std::printf("\n  PIM(4) delay at 95%% load: %.1f slots = %.1f us "
                        "at 1 Gb/s (paper: < 13 us)\n",
                        pim_95->mean_delay.mean,
                        slotsToMicros(pim_95->mean_delay.mean));
        if (table && paper_axis) {
            std::printf("  (FIFO delay at loads beyond ~0.6 grows with "
                        "simulation length: saturated.)\n");
            if (spec.replicates > 1)
                std::printf("  (%d replicates per cell; stddev/CI95 in the "
                            "JSON output)\n",
                            spec.replicates);
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
