/**
 * @file
 * Iterations-to-convergence distribution for PIM, measured through the
 * obs probe layer rather than ad-hoc instrumentation: a Recorder is
 * attached, the switch runs the Figure 3 uniform workload at each load,
 * and the recorder's per-slot productive-iterations histogram gives the
 * distribution of how many request/grant/accept rounds did useful work
 * before the matching stopped growing.
 *
 * The paper (§3.2) argues log N iterations suffice; this bench shows the
 * distribution concentrating far below the budget at every load, which
 * is why PIM(4) tracks PIM(run-to-completion) so closely at N=16.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/parse.h"
#include "an2/harness/cli.h"
#include "an2/harness/json_writer.h"
#include "an2/obs/recorder.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"
#include "bench_common.h"

namespace {

using namespace an2;

struct Cli
{
    std::string json_path;
    long long slots = 50'000;
    long long warmup = 5'000;
    int size = 16;
    int iterations = 0;  ///< PIM budget; 0 = run to completion
    uint64_t seed = 404;
    std::vector<double> loads{0.30, 0.50, 0.70, 0.90, 0.99};
    bool help = false;
};

void
printHelp(const char* prog)
{
    std::printf("usage: %s [options]\n", prog);
    std::printf("  --json PATH       write an an2.convergence.v1 document\n");
    std::printf("  --slots S         measured slots per load "
                "(default 50000)\n");
    std::printf("  --warmup W        unmeasured warmup slots "
                "(default 5000)\n");
    std::printf("  --size N          switch size (default 16)\n");
    std::printf("  --iterations K    PIM iteration budget, 0 = run to "
                "completion (default 0)\n");
    std::printf("  --loads A,B,...   offered loads "
                "(default 0.3,0.5,0.7,0.9,0.99)\n");
    std::printf("  --seed X          base seed (default 404)\n");
    std::printf("  --help            this message\n");
}

bool
parseCli(int argc, char** argv, Cli& cli, std::string& err)
{
    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            err = std::string(argv[i]) + " needs an argument";
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        const char* v = nullptr;
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            cli.help = true;
        } else if (!std::strcmp(a, "--json")) {
            if (!(v = need(i)))
                return false;
            cli.json_path = v;
        } else if (!std::strcmp(a, "--slots")) {
            if (!(v = need(i)))
                return false;
            int64_t slots = 0;
            if (!parseInt64(v, slots) || slots <= 0) {
                err = badValue("--slots", v, "a positive integer");
                return false;
            }
            cli.slots = slots;
        } else if (!std::strcmp(a, "--warmup")) {
            if (!(v = need(i)))
                return false;
            int64_t warmup = 0;
            if (!parseInt64(v, warmup) || warmup < 0) {
                err = badValue("--warmup", v, "an integer >= 0");
                return false;
            }
            cli.warmup = warmup;
        } else if (!std::strcmp(a, "--size")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.size) || cli.size <= 0) {
                err = badValue("--size", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--iterations")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.iterations) || cli.iterations < 0) {
                err = badValue("--iterations", v, "an integer >= 0");
                return false;
            }
        } else if (!std::strcmp(a, "--seed")) {
            if (!(v = need(i)))
                return false;
            if (!parseUint64(v, cli.seed)) {
                err = badValue("--seed", v, "an unsigned 64-bit integer");
                return false;
            }
        } else if (!std::strcmp(a, "--loads")) {
            if (!(v = need(i)))
                return false;
            if (!harness::parseLoadList(v, cli.loads, err)) {
                err = "--loads: " + err;
                return false;
            }
        } else {
            err = std::string("unknown option: ") + a;
            return false;
        }
    }
    return true;
}

struct LoadResult
{
    double load = 0.0;
    std::vector<int64_t> hist;  ///< productive iterations per slot
    double mean = 0.0;
    int p50 = 0;
    int p99 = 0;
    int max = 0;
};

int
quantileBin(const std::vector<int64_t>& hist, int64_t total, double q)
{
    int64_t target = static_cast<int64_t>(q * static_cast<double>(total));
    int64_t seen = 0;
    for (size_t k = 0; k < hist.size(); ++k) {
        seen += hist[k];
        if (seen > target)
            return static_cast<int>(k);
    }
    return static_cast<int>(hist.size()) - 1;
}

LoadResult
measureLoad(const Cli& cli, double load)
{
    // Warmup runs unobserved so the distribution covers steady state
    // only; the recorder attaches for the measured slots.
    auto sw = std::make_unique<InputQueuedSwitch>(
        IqSwitchConfig{.n = cli.size},
        bench::makePim(cli.iterations, cli.seed));
    UniformTraffic traffic(cli.size, load, cli.seed + 1);
    std::vector<Cell> arrivals;
    auto drive = [&](SlotTime from, SlotTime to) {
        for (SlotTime slot = from; slot < to; ++slot) {
            arrivals.clear();
            traffic.generate(slot, arrivals);
            for (const Cell& c : arrivals)
                sw->acceptCell(c);
            sw->runSlot(slot);
        }
    };
    drive(0, cli.warmup);

    obs::RecorderConfig rc;
    rc.ports = cli.size;
    rc.max_iterations = cli.size + 2;
    obs::Recorder rec(rc);
    obs::attach(&rec);
    drive(cli.warmup, cli.warmup + cli.slots);
    obs::detach();

    LoadResult r;
    r.load = load;
    r.hist = rec.iterationsPerSlotHistogram();
    int64_t total = 0;
    int64_t weighted = 0;
    for (size_t k = 0; k < r.hist.size(); ++k) {
        total += r.hist[k];
        weighted += r.hist[k] * static_cast<int64_t>(k);
        if (r.hist[k] > 0)
            r.max = static_cast<int>(k);
    }
    r.mean = total > 0
                 ? static_cast<double>(weighted) / static_cast<double>(total)
                 : 0.0;
    r.p50 = quantileBin(r.hist, total, 0.50);
    r.p99 = quantileBin(r.hist, total, 0.99);
    return r;
}

std::string
resultsToJson(const Cli& cli, const std::vector<LoadResult>& results)
{
    harness::JsonWriter w;
    w.beginObject();
    w.key("meta").beginObject();
    w.key("schema").value("an2.convergence.v1");
    w.key("description")
        .value("productive PIM iterations per slot (iterations to "
               "convergence), uniform workload");
    w.key("size").value(cli.size);
    w.key("iteration_budget").value(cli.iterations);
    w.key("slots").value(static_cast<int64_t>(cli.slots));
    w.key("warmup").value(static_cast<int64_t>(cli.warmup));
    w.key("base_seed").value(std::to_string(cli.seed));
    w.endObject();
    w.key("loads").beginArray();
    for (const LoadResult& r : results) {
        w.beginObject();
        w.key("load").value(r.load);
        w.key("mean").value(r.mean);
        w.key("p50").value(r.p50);
        w.key("p99").value(r.p99);
        w.key("max").value(r.max);
        w.key("hist").beginArray();
        for (int64_t c : r.hist)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

}  // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    std::string err;
    if (!parseCli(argc, argv, cli, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        printHelp(argv[0]);
        return 2;
    }
    if (cli.help) {
        printHelp(argv[0]);
        return 0;
    }

    const bool table = cli.json_path != "-";
    if (table) {
        bench::banner("PIM iterations to convergence -- productive "
                      "iterations per slot",
                      "paper S3.2 (log N convergence), via src/an2/obs");
        std::printf("  %dx%d switch, PIM budget %s, %lld measured slots "
                    "per load\n\n",
                    cli.size, cli.size,
                    cli.iterations == 0
                        ? "unlimited (run to completion)"
                        : std::to_string(cli.iterations).c_str(),
                    cli.slots);
        std::printf("  %5s  %6s  %4s  %4s  %4s   distribution "
                    "(slots at 0,1,2,... iterations)\n",
                    "load", "mean", "p50", "p99", "max");
    }

    std::vector<LoadResult> results;
    for (double load : cli.loads) {
        LoadResult r = measureLoad(cli, load);
        if (table) {
            std::printf("  %5.2f  %6.2f  %4d  %4d  %4d  ", r.load, r.mean,
                        r.p50, r.p99, r.max);
            for (int k = 0; k <= r.max; ++k)
                std::printf(" %lld",
                            static_cast<long long>(
                                r.hist[static_cast<size_t>(k)]));
            std::printf("\n");
        }
        results.push_back(std::move(r));
    }

    if (!cli.json_path.empty() &&
        !bench::writeTextFile(cli.json_path, resultsToJson(cli, results),
                              "an2.convergence.v1"))
        return 1;
    return 0;
}
