/**
 * @file
 * switch_explorer — a command-line workbench over the an2sim public API.
 * Pick a switch architecture, a workload, and a load sweep; get the
 * delay/throughput table. Uses the umbrella header as a user would.
 *
 *   $ ./switch_explorer --switch pim --iterations 4 --n 16 \
 *         --workload uniform --loads 0.5,0.8,0.95 --slots 100000
 *   $ ./switch_explorer --switch fifo --workload clientserver
 *   $ ./switch_explorer --help
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "an2/an2.h"

using namespace an2;

namespace {

struct Options
{
    std::string switch_kind = "pim";  // pim | islip | fifo | oq | maximum
    std::string workload = "uniform";  // uniform|clientserver|bursty|hotspot
    int n = 16;
    int iterations = 4;
    int window = 1;
    int speedup = 1;
    int servers = 4;
    double mean_burst = 16.0;
    double hotspot_fraction = 0.3;
    std::vector<double> loads = {0.5, 0.7, 0.9, 0.95, 0.99};
    SlotTime slots = 100'000;
    uint64_t seed = 1;
};

void
usage()
{
    std::printf(
        "switch_explorer -- simulate an AN2-style switch\n"
        "  --switch pim|islip|fifo|oq|maximum   architecture (default pim)\n"
        "  --workload uniform|clientserver|bursty|hotspot\n"
        "  --n N            ports (default 16)\n"
        "  --iterations K   PIM/iSLIP iterations (default 4)\n"
        "  --window W       FIFO lookahead window (default 1)\n"
        "  --speedup S      output speedup for pim (default 1)\n"
        "  --servers S      servers for clientserver (default 4)\n"
        "  --loads a,b,c    offered loads (default 0.5,0.7,0.9,0.95,0.99)\n"
        "  --slots S        slots per run (default 100000)\n"
        "  --seed S         PRNG seed (default 1)\n");
}

std::vector<double>
parseLoads(const std::string& arg)
{
    std::vector<double> loads;
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        loads.push_back(std::stod(arg.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return loads;
}

bool
parse(int argc, char** argv, Options& opt)
{
    for (int a = 1; a < argc; ++a) {
        std::string key = argv[a];
        if (key == "--help" || key == "-h")
            return false;
        if (a + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", key.c_str());
            return false;
        }
        std::string val = argv[++a];
        if (key == "--switch") {
            opt.switch_kind = val;
        } else if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--n") {
            opt.n = std::stoi(val);
        } else if (key == "--iterations") {
            opt.iterations = std::stoi(val);
        } else if (key == "--window") {
            opt.window = std::stoi(val);
        } else if (key == "--speedup") {
            opt.speedup = std::stoi(val);
        } else if (key == "--servers") {
            opt.servers = std::stoi(val);
        } else if (key == "--loads") {
            opt.loads = parseLoads(val);
        } else if (key == "--slots") {
            opt.slots = std::stoll(val);
        } else if (key == "--seed") {
            opt.seed = std::stoull(val);
        } else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return false;
        }
    }
    return true;
}

std::unique_ptr<SwitchModel>
makeSwitch(const Options& opt)
{
    if (opt.switch_kind == "pim") {
        PimConfig cfg;
        cfg.iterations = opt.iterations;
        cfg.seed = opt.seed;
        cfg.output_capacity = opt.speedup;
        return std::make_unique<InputQueuedSwitch>(
            IqSwitchConfig{.n = opt.n,
                           .service = opt.speedup > 1
                                          ? ServiceDiscipline::Strict
                                          : ServiceDiscipline::None},
            std::make_unique<PimMatcher>(cfg));
    }
    if (opt.switch_kind == "islip") {
        return std::make_unique<InputQueuedSwitch>(
            IqSwitchConfig{.n = opt.n},
            std::make_unique<IslipMatcher>(opt.iterations));
    }
    if (opt.switch_kind == "maximum") {
        return std::make_unique<InputQueuedSwitch>(
            IqSwitchConfig{.n = opt.n},
            std::make_unique<HopcroftKarpMatcher>());
    }
    if (opt.switch_kind == "fifo") {
        return std::make_unique<FifoSwitch>(opt.n, opt.seed, opt.window,
                                            opt.window);
    }
    if (opt.switch_kind == "oq") {
        return std::make_unique<OutputQueuedSwitch>(opt.n);
    }
    AN2_FATAL("unknown switch kind '" << opt.switch_kind << "'");
}

std::unique_ptr<TrafficGenerator>
makeWorkload(const Options& opt, double load)
{
    uint64_t seed = opt.seed + 1000;
    if (opt.workload == "uniform")
        return std::make_unique<UniformTraffic>(opt.n, load, seed);
    if (opt.workload == "clientserver")
        return std::make_unique<ClientServerTraffic>(opt.n, opt.servers,
                                                     load, seed);
    if (opt.workload == "bursty")
        return std::make_unique<BurstyTraffic>(opt.n, load, opt.mean_burst,
                                               seed);
    if (opt.workload == "hotspot")
        return std::make_unique<HotspotTraffic>(opt.n, load, 0,
                                                opt.hotspot_fraction, seed);
    AN2_FATAL("unknown workload '" << opt.workload << "'");
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 1;
    }

    try {
        std::printf("  load   mean delay   p99 delay   throughput   "
                    "offered   max buffer\n");
        for (double load : opt.loads) {
            auto sw = makeSwitch(opt);
            auto traffic = makeWorkload(opt, load);
            SimConfig cfg;
            cfg.slots = opt.slots;
            cfg.warmup = opt.slots / 5;
            SimResult r = runSimulation(*sw, *traffic, cfg);
            std::printf("  %4.2f  %10.2f  %10.1f  %10.3f  %9.3f  %10d\n",
                        load, r.mean_delay, r.p99_delay, r.throughput,
                        r.offered, r.max_occupancy);
        }
        auto sw = makeSwitch(opt);
        std::printf("\n  switch: %s, workload: %s, %lld slots/point\n",
                    sw->name().c_str(), opt.workload.c_str(),
                    static_cast<long long>(opt.slots));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
