/**
 * @file
 * bench_network_scale — the LAN-scale stress experiment: a 16-ary
 * fat-tree (320 switches, 2048 hosts) carrying a uniform VBR+CBR
 * traffic matrix, driven by the sharded deterministic network engine.
 *
 *     bench_network_scale --engine parallel --threads 8 \
 *                         --json BENCH_netscale.json
 *     bench_network_scale --engine serial --json serial.json
 *
 * The two JSON documents above are byte-identical: the engine is a
 * wall-clock choice, never a results choice. `--faults` composes — a
 * link_down plan triggers deterministic ECMP failover on both engines.
 */
#include <cstdio>

#include "net_sweep_specs.h"

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

    if (!acceptsFixedExperimentFlags(cli))
        return 2;
    NetExperiment exp = {"netscale", "", netScaleSpec};
    try {
        return runNetExperiment(exp, cli);
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
