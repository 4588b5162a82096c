/**
 * @file
 * Whole-switch hot-path benchmark: slots per second through the full
 * acceptCell/runSlot loop on the Figure 3 workload (uniform Bernoulli
 * arrivals, 16x16, load 0.9 by default).
 *
 * Where bench_match_speed isolates the matcher, this measures the path a
 * production switch would run every cell time: traffic injection, input
 * buffering, request bookkeeping, matching, and crossbar forwarding. The
 * committed BENCH_hotpath.json records the before/after trajectory of
 * the zero-allocation + word-parallel hot-path work (see EXPERIMENTS.md
 * "Performance methodology").
 *
 * Emits an an2.sweep.v1 JSON document with timing aggregates per
 * architecture; unlike the simulation sweeps, the numbers are wall-clock
 * rates and therefore machine-dependent by design.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/parse.h"
#include "an2/base/stats.h"
#include "an2/harness/aggregate.h"
#include "an2/harness/arch.h"
#include "an2/harness/json_writer.h"
#include "an2/obs/recorder.h"
#include "an2/sim/simulator.h"
#include "bench_common.h"

namespace {

using namespace an2;

struct Cli
{
    std::string json_path;
    long long slots = 200'000;
    long long warmup = 20'000;
    int reps = 3;
    int size = 16;
    double load = 0.9;
    uint64_t seed = 2026;
    std::string arch_filter;  ///< substring filter; empty = all
    bool help = false;
};

void
printHelp(const char* prog)
{
    std::printf("usage: %s [options]\n", prog);
    std::printf("  --json PATH    write an an2.sweep.v1 timing document\n");
    std::printf("  --slots S      measured slots per repetition "
                "(default 200000)\n");
    std::printf("  --warmup W     unmeasured warmup slots (default 20000)\n");
    std::printf("  --reps R       repetitions per architecture "
                "(default 3)\n");
    std::printf("  --size N       switch size (default 16)\n");
    std::printf("  --load L       offered load (default 0.9)\n");
    std::printf("  --seed X       base seed (default 2026)\n");
    std::printf("  --arch STR     only architectures whose name contains "
                "STR\n");
    std::printf("  --help         this message\n");
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
        } else if (!std::strcmp(a, "--reps")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.reps) || cli.reps <= 0) {
                err = badValue("--reps", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--size")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.size) || cli.size <= 0) {
                err = badValue("--size", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--load")) {
            if (!(v = need(i)))
                return false;
            if (!parseDouble(v, cli.load) || cli.load <= 0.0 ||
                cli.load > 1.0) {
                err = badValue("--load", v, "a number in (0, 1]");
                return false;
            }
        } else if (!std::strcmp(a, "--seed")) {
            if (!(v = need(i)))
                return false;
            if (!parseUint64(v, cli.seed)) {
                err = badValue("--seed", v, "an unsigned 64-bit integer");
                return false;
            }
        } else if (!std::strcmp(a, "--arch")) {
            if (!(v = need(i)))
                return false;
            cli.arch_filter = v;
        } else {
            err = std::string("unknown option: ") + a;
            return false;
        }
    }
    return true;
}

/** One row: a registry name (harness/arch.h) and how much of the obs
    layer is engaged. */
struct ArchUnderTest
{
    const char* arch;

    /** 0 = probes unattached (the production configuration), 1 = a
        Recorder attached with counters/histograms only, 2 = counters
        plus a 64Ki-event trace ring, 3 = counters plus latency
        histograms and a metrics time series sampled every 1000 slots. */
    int obs_mode = 0;

    /** The row's name: the arch, plus the obs mode's suffix. */
    std::string name() const
    {
        static const char* const kObsSuffix[] = {
            "", "+obs-counters", "+obs-trace", "+obs-latency"};
        return std::string(arch) + kObsSuffix[obs_mode];
    }
};

// The plain "PIM(4)" row is the probes-compiled-in-but-unattached
// configuration the <3% hot-path budget applies to; its +obs rows price
// the attached tiers (see EXPERIMENTS.md "Observability"). The +warm
// rows seed each slot's matching from the previous slot's surviving
// edges and repair only the changed ports (see matcher.h); their
// obs-counters row records the reuse/repair counters into the JSON. The
// CIOQ row runs S greedy matching phases per slot plus the per-class
// output stage; check_bench skips rows with no committed baseline.
const ArchUnderTest kArchsUnderTest[] = {
    {"PIM(4)", 0},
    {"PIM(4)", 1},
    {"PIM(4)", 2},
    {"PIM(4)", 3},
    {"PIM(4)-pipelined", 0},
    {"iSLIP(4)", 0},
    {"Greedy", 0},
    {"iSLIP(4)+warm", 0},
    {"Greedy+warm", 0},
    {"iSLIP(4)+warm", 1},
    {"OutputQueued", 0},
    {"CIOQ(S=2,strict)", 0},
};

struct ArchTiming
{
    std::string name;
    RunningStats slots_per_sec;
    RunningStats cells_per_sec;
    int64_t delivered = 0;

    /** Warm-start counters over the measured slots (obs rows only). */
    bool has_obs_counters = false;
    int64_t match_edges_reused = 0;
    int64_t match_edges_repaired = 0;
    int64_t warm_start_full_reuses = 0;
    int64_t trace_events_dropped = 0;
};

/** Feeds the switch's batched runSlots() loop: arrivals straight from
    the traffic generator, departures tallied. */
class BenchDriver final : public SlotDriver
{
  public:
    explicit BenchDriver(TrafficGenerator& traffic) : traffic_(traffic) {}

    const std::vector<Cell>& beginSlot(SlotTime slot) override
    {
        arrivals_.clear();
        traffic_.generate(slot, arrivals_);
        return arrivals_;
    }

    void endSlot(SlotTime slot, const std::vector<Cell>& departed) override
    {
        delivered_ += static_cast<int64_t>(departed.size());
        // Same delivery probe SimDriver fires in production; one
        // load+branch per slot when nothing is attached.
        if (obs::Recorder* rec = obs::current())
            for (const Cell& c : departed)
                rec->cellDelivered(c, slot);
    }

    int64_t delivered() const { return delivered_; }
    void resetDelivered() { delivered_ = 0; }

  private:
    TrafficGenerator& traffic_;
    std::vector<Cell> arrivals_;
    int64_t delivered_ = 0;
};

ArchTiming
timeArch(const ArchUnderTest& arch, const Cli& cli)
{
    const harness::ArchSpec spec = harness::archByName(arch.arch);
    ArchTiming timing;
    timing.name = arch.name();
    timing.has_obs_counters = arch.obs_mode > 0;
    for (int rep = 0; rep < cli.reps; ++rep) {
        std::unique_ptr<obs::Recorder> rec;
        if (arch.obs_mode > 0) {
            obs::RecorderConfig rc;
            rc.ports = cli.size;
            if (arch.obs_mode == 2)
                rc.trace_capacity = 1u << 16;
            if (arch.obs_mode == 3) {
                rc.track_latency = true;
                rc.metrics_every = 1000;
            }
            rec = std::make_unique<obs::Recorder>(rc);
            obs::attach(rec.get());
        }
        auto sw = spec.make(cli.size,
                            cli.seed + static_cast<uint64_t>(rep) * 7919);
        UniformTraffic traffic(cli.size, cli.load,
                               cli.seed + 1 +
                                   static_cast<uint64_t>(rep) * 104729);
        BenchDriver driver(traffic);
        sw->runSlots(0, cli.warmup, driver);
        driver.resetDelivered();
        const int64_t reused0 =
            rec ? rec->counter(obs::Counter::MatchEdgesReused) : 0;
        const int64_t repaired0 =
            rec ? rec->counter(obs::Counter::MatchEdgesRepaired) : 0;
        const int64_t full0 =
            rec ? rec->counter(obs::Counter::WarmStartFullReuses) : 0;
        const int64_t dropped0 =
            rec ? rec->counter(obs::Counter::TraceEventsDropped) : 0;
        auto t0 = std::chrono::steady_clock::now();
        sw->runSlots(cli.warmup, cli.slots, driver);
        auto t1 = std::chrono::steady_clock::now();
        if (rec) {
            timing.match_edges_reused +=
                rec->counter(obs::Counter::MatchEdgesReused) - reused0;
            timing.match_edges_repaired +=
                rec->counter(obs::Counter::MatchEdgesRepaired) - repaired0;
            timing.warm_start_full_reuses +=
                rec->counter(obs::Counter::WarmStartFullReuses) - full0;
            timing.trace_events_dropped +=
                rec->counter(obs::Counter::TraceEventsDropped) - dropped0;
            obs::detach();
        }
        const int64_t delivered = driver.delivered();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        timing.slots_per_sec.add(static_cast<double>(cli.slots) / secs);
        timing.cells_per_sec.add(static_cast<double>(delivered) / secs);
        timing.delivered += delivered;
    }
    return timing;
}

void
writeAggregate(harness::JsonWriter& w, const char* key,
               const RunningStats& s)
{
    harness::Aggregate a = harness::summarize(s);
    w.key(key).beginObject();
    w.key("mean").value(a.mean);
    w.key("stddev").value(a.stddev);
    w.key("ci95").value(a.ci95);
    w.key("min").value(a.min);
    w.key("max").value(a.max);
    w.endObject();
}

std::string
timingsToJson(const Cli& cli, const std::vector<ArchTiming>& timings)
{
    harness::JsonWriter w;
    w.beginObject();
    w.key("meta").beginObject();
    w.key("schema").value("an2.sweep.v1");
    w.key("experiment").value("slot_loop");
    w.key("description")
        .value("whole-switch slots/sec on the Figure 3 workload "
               "(wall-clock rates; machine-dependent)");
    w.key("workload").value("uniform");
    w.key("slots").value(static_cast<int64_t>(cli.slots));
    w.key("warmup").value(static_cast<int64_t>(cli.warmup));
    w.key("replicates").value(cli.reps);
    w.key("base_seed").value(std::to_string(cli.seed));
    w.endObject();
    w.key("axes").beginObject();
    w.key("arch").beginArray();
    for (const ArchTiming& t : timings)
        w.value(t.name);
    w.endArray();
    w.key("size").beginArray().value(cli.size).endArray();
    w.key("load").beginArray().value(cli.load).endArray();
    w.endObject();
    w.key("cells").beginArray();
    for (const ArchTiming& t : timings) {
        w.beginObject();
        w.key("arch").value(t.name);
        w.key("size").value(cli.size);
        w.key("load").value(cli.load);
        w.key("replicates").value(cli.reps);
        writeAggregate(w, "slots_per_sec", t.slots_per_sec);
        writeAggregate(w, "cells_per_sec", t.cells_per_sec);
        w.key("delivered").value(t.delivered);
        if (t.has_obs_counters) {
            w.key("match_edges_reused").value(t.match_edges_reused);
            w.key("match_edges_repaired").value(t.match_edges_repaired);
            w.key("warm_start_full_reuses").value(t.warm_start_full_reuses);
            w.key("trace_events_dropped").value(t.trace_events_dropped);
        }
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
        bench::banner("Hot path -- whole-switch slots/sec, Figure 3 "
                      "workload",
                      "an2sim performance methodology (EXPERIMENTS.md)");
        std::printf("  %dx%d switch, load %.2f, %lld measured slots, "
                    "%d rep(s)\n\n",
                    cli.size, cli.size, cli.load, cli.slots, cli.reps);
        std::printf("  %-18s  %12s  %12s  %10s\n", "arch", "slots/s",
                    "cells/s", "stddev");
    }

    std::vector<ArchTiming> timings;
    for (const ArchUnderTest& arch : kArchsUnderTest) {
        if (!cli.arch_filter.empty() &&
            arch.name().find(cli.arch_filter) == std::string::npos)
            continue;
        ArchTiming t = timeArch(arch, cli);
        if (table)
            std::printf("  %-18s  %12.0f  %12.0f  %10.0f\n",
                        t.name.c_str(), t.slots_per_sec.mean(),
                        t.cells_per_sec.mean(), t.slots_per_sec.stddev());
        timings.push_back(std::move(t));
    }

    if (!cli.json_path.empty() &&
        !bench::writeTextFile(cli.json_path, timingsToJson(cli, timings),
                              "an2.sweep.v1"))
        return 1;
    return 0;
}
