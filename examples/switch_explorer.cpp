/**
 * @file
 * switch_explorer — a command-line workbench over the an2sim public API.
 * Pick a switch architecture, a workload, and a load sweep; get the
 * delay/throughput table. Uses the umbrella header as a user would.
 *
 *   $ ./switch_explorer --arch "PIM(4)" --n 16 \
 *         --workload uniform --loads 0.5,0.8,0.95 --slots 100000
 *   $ ./switch_explorer --arch FIFO --workload clientserver
 *   $ ./switch_explorer --help
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "an2/an2.h"
#include "an2/base/parse.h"
#include "an2/harness/cli.h"

using namespace an2;

namespace {

struct Options
{
    harness::ArchSpec arch = harness::archByName("PIM(4)");
    std::string workload = "uniform";  // uniform|clientserver|bursty|hotspot
    int n = 16;
    int servers = 4;
    double mean_burst = 16.0;
    double hotspot_fraction = 0.3;
    std::vector<double> loads = {0.5, 0.7, 0.9, 0.95, 0.99};
    SlotTime slots = 100'000;
    uint64_t seed = 1;
    bool help = false;
};

void
usage()
{
    std::printf(
        "switch_explorer -- simulate an AN2-style switch\n"
        "  --arch NAME      architecture (default PIM(4)), one of\n"
        "                   %s\n"
        "  --workload uniform|clientserver|bursty|hotspot\n"
        "  --n N            ports (default 16)\n"
        "  --servers S      servers for clientserver (default 4)\n"
        "  --loads a,b,c    offered loads (default 0.5,0.7,0.9,0.95,0.99)\n"
        "  --slots S        slots per run (default 100000)\n"
        "  --seed S         PRNG seed (default 1)\n",
        harness::kArchGrammar);
}

/**
 * Parse argv into `opt`. Every value must parse whole and lie in its
 * range, and no flag may be given twice; otherwise returns false with
 * `err` naming the flag.
 */
bool
parse(int argc, char** argv, Options& opt, std::string& err)
{
    static const std::vector<std::string> kWorkloads = {
        "uniform", "clientserver", "bursty", "hotspot"};
    auto oneOf = [](const std::string& v, const std::vector<std::string>& in) {
        return std::find(in.begin(), in.end(), v) != in.end();
    };
    std::vector<std::string> seen;
    for (int a = 1; a < argc; ++a) {
        const std::string key = argv[a];
        if (key == "--help" || key == "-h") {
            opt.help = true;
            continue;
        }
        if (oneOf(key, seen)) {
            err = "duplicate option: " + key + " was given more than once";
            return false;
        }
        seen.push_back(key);
        if (a + 1 >= argc) {
            err = key + " needs an argument";
            return false;
        }
        const char* v = argv[++a];
        auto fail = [&](const char* expected) {
            err = badValue(key.c_str(), v, expected);
            return false;
        };
        if (key == "--arch") {
            try {
                opt.arch = harness::archByName(v);
            } catch (const UsageError&) {
                return fail(harness::kArchGrammar);
            }
        } else if (key == "--workload") {
            if (!oneOf(v, kWorkloads))
                return fail("uniform, clientserver, bursty or hotspot");
            opt.workload = v;
        } else if (key == "--n") {
            if (!parseInt(v, opt.n) || opt.n <= 0)
                return fail("a positive integer");
        } else if (key == "--servers") {
            if (!parseInt(v, opt.servers) || opt.servers <= 0)
                return fail("a positive integer");
        } else if (key == "--loads") {
            if (!harness::parseLoadList(v, opt.loads, err)) {
                err = "--loads: " + err;
                return false;
            }
        } else if (key == "--slots") {
            if (!parseInt64(v, opt.slots) || opt.slots <= 0)
                return fail("a positive integer");
        } else if (key == "--seed") {
            if (!parseUint64(v, opt.seed))
                return fail("an unsigned 64-bit integer");
        } else {
            err = "unknown option: " + key;
            return false;
        }
    }
    return true;
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
    std::string err;
    if (!parse(argc, argv, opt, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        usage();
        return 2;
    }
    if (opt.help) {
        usage();
        return 0;
    }

    // Build the switch and every load's workload once before printing,
    // so a combination the constructors reject (say, --servers >= --n)
    // fails before the table starts.
    std::string switch_name;
    try {
        switch_name = opt.arch.make(opt.n, opt.seed)->name();
        for (double load : opt.loads)
            makeWorkload(opt, load);
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    try {
        std::printf("  load   mean delay   p99 delay   throughput   "
                    "offered   max buffer\n");
        for (double load : opt.loads) {
            auto sw = opt.arch.make(opt.n, opt.seed);
            auto traffic = makeWorkload(opt, load);
            SimConfig cfg;
            cfg.slots = opt.slots;
            cfg.warmup = opt.slots / 5;
            SimResult r = runSimulation(*sw, *traffic, cfg);
            std::printf("  %4.2f  %10.2f  %10.1f  %10.3f  %9.3f  %10d\n",
                        load, r.mean_delay, r.p99_delay, r.throughput,
                        r.offered, r.max_occupancy);
        }
        std::printf("\n  switch: %s, workload: %s, %lld slots/point\n",
                    switch_name.c_str(), opt.workload.c_str(),
                    static_cast<long long>(opt.slots));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
