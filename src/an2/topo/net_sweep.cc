#include "an2/topo/net_sweep.h"

#include <memory>
#include <utility>

#include "an2/base/error.h"
#include "an2/fault/chaos.h"
#include "an2/harness/json_writer.h"
#include "an2/harness/sweep.h"
#include "an2/matching/pim.h"
#include "an2/topo/net_metrics.h"

namespace an2::topo {

const char*
patternName(Pattern pattern)
{
    switch (pattern) {
      case Pattern::Uniform:      return "uniform";
      case Pattern::Hotspot:      return "hotspot";
      case Pattern::ClientServer: return "client-server";
    }
    AN2_PANIC("unknown traffic pattern");
}

namespace {

void
validateSpec(const NetSweepSpec& spec)
{
    AN2_REQUIRE(!spec.topos.empty(), "net sweep needs at least one topology");
    AN2_REQUIRE(!spec.loads.empty(), "net sweep needs at least one load");
    AN2_REQUIRE(spec.replicates >= 1, "need at least one replicate");
    AN2_REQUIRE(spec.frames >= 1, "need at least one frame per run");
    for (double load : spec.loads)
        AN2_REQUIRE(load > 0.0 && load <= 1.0,
                    "load " << load << " outside (0, 1]");
}

/** One run's observable outcome, derived from LanStats. */
struct RunOutcome
{
    LanStats stats;
    double throughput = 0.0;
};

RunOutcome
runPoint(const NetSweepSpec& spec, const Topology& topo, double load,
         int run_index, int engine_threads,
         LanMetricsSeries* series = nullptr)
{
    LanConfig config;
    config.net = spec.net;
    config.max_clock_error = spec.max_clock_error;
    config.phase_jitter = spec.phase_jitter;
    config.seed = harness::runSeed(spec.base_seed, run_index, 0);
    int iterations = spec.pim_iterations;
    config.matcher = [iterations](int /*n_ports*/, uint64_t seed) {
        PimConfig cfg;
        cfg.iterations = iterations;
        cfg.seed = seed;
        return std::make_unique<PimMatcher>(cfg);
    };

    Lan lan(topo, config);
    uint64_t place_seed = harness::runSeed(spec.base_seed, run_index, 1);
    lan.placeMatrix(spec.pattern, TrafficSpec{TrafficClass::VBR, load, 0},
                    place_seed);
    if (spec.cbr_cells_per_frame > 0)
        lan.placeMatrix(spec.pattern,
                        TrafficSpec{TrafficClass::CBR, 0.0,
                                    spec.cbr_cells_per_frame},
                        place_seed + 1);
    if (spec.restore) {
        fault::RestorePolicy policy = spec.restore_policy;
        if (policy.seed == 0)
            policy.seed = harness::runSeed(spec.base_seed, run_index, 2);
        lan.enableRestoration(policy);
    }
    if (!spec.faults.empty()) {
        AN2_REQUIRE(spec.faults.maxLinkTarget() < lan.net().numLinks(),
                    "fault plan targets link "
                        << spec.faults.maxLinkTarget() << " but "
                        << topo.name() << " has only "
                        << lan.net().numLinks() << " links");
        lan.scheduleFaults(spec.faults);
    }
    if (spec.chaos.enabled()) {
        // The expansion is a pure function of (spec, topology, horizon);
        // every replicate of a topology sees the same churn.
        const fault::ChaosEnv env = fault::chaosEnvFor(
            lan.net(), spec.frames * spec.net.switch_frame_slots);
        lan.scheduleFaults(fault::expandChaos(spec.chaos, env));
    }
    if (series != nullptr)
        runLanWithMetrics(lan, spec.frames, engine_threads, *series);
    else
        lan.runFrames(spec.frames, engine_threads);

    RunOutcome out;
    out.stats = lan.stats();
    out.throughput =
        out.stats.injected > 0
            ? static_cast<double>(out.stats.delivered) /
                  static_cast<double>(out.stats.injected)
            : 0.0;
    return out;
}

}  // namespace

std::vector<NetCellSummary>
runNetSweep(const NetSweepSpec& spec, int engine_threads,
            const std::function<void(int, int)>& on_progress)
{
    validateSpec(spec);

    struct CellAccum
    {
        RunningStats throughput;
        RunningStats wall_latency;
        RunningStats adjusted_latency;
        int64_t injected = 0;
        int64_t delivered = 0;
        int64_t vbr_dropped = 0;
        int64_t reroutes = 0;
        int64_t unroutable = 0;
        int64_t link_lost = 0;
        int64_t cbr_restored = 0;
        int64_t cbr_degraded = 0;
        int64_t cbr_abandoned = 0;
        int64_t cbr_restore_retries = 0;
        int64_t restore_lost = 0;
    };
    std::vector<CellAccum> accums(spec.topos.size() * spec.loads.size());

    const int total = static_cast<int>(accums.size()) * spec.replicates;
    int run_index = 0;
    for (size_t ti = 0; ti < spec.topos.size(); ++ti) {
        // One graph per topology axis value, shared by its runs; Lan
        // copies nothing out of it and the generators are deterministic.
        Topology topo = spec.topos[ti].make();
        for (size_t li = 0; li < spec.loads.size(); ++li) {
            CellAccum& acc = accums[ti * spec.loads.size() + li];
            for (int rep = 0; rep < spec.replicates; ++rep, ++run_index) {
                RunOutcome out = runPoint(spec, topo, spec.loads[li],
                                          run_index, engine_threads);
                acc.throughput.add(out.throughput);
                acc.wall_latency.add(out.stats.mean_wall_latency_ps);
                acc.adjusted_latency.add(out.stats.mean_adjusted_latency_ps);
                acc.injected += out.stats.injected;
                acc.delivered += out.stats.delivered;
                acc.vbr_dropped += out.stats.vbr_dropped;
                acc.reroutes += out.stats.reroutes;
                acc.unroutable += out.stats.unroutable;
                acc.link_lost += out.stats.link_lost;
                acc.cbr_restored += out.stats.cbr_restored;
                acc.cbr_degraded += out.stats.cbr_degraded;
                acc.cbr_abandoned += out.stats.cbr_abandoned;
                acc.cbr_restore_retries += out.stats.cbr_restore_retries;
                acc.restore_lost += out.stats.restore_lost;
                if (on_progress)
                    on_progress(run_index + 1, total);
            }
        }
    }

    std::vector<NetCellSummary> cells;
    cells.reserve(accums.size());
    size_t c = 0;
    for (const NetTopoSpec& topo : spec.topos) {
        for (double load : spec.loads) {
            const CellAccum& acc = accums[c++];
            NetCellSummary cell;
            cell.topo = topo.name;
            cell.load = load;
            cell.replicates = spec.replicates;
            cell.throughput = harness::summarize(acc.throughput);
            cell.mean_wall_latency_ps = harness::summarize(acc.wall_latency);
            cell.mean_adjusted_latency_ps =
                harness::summarize(acc.adjusted_latency);
            cell.injected = acc.injected;
            cell.delivered = acc.delivered;
            cell.vbr_dropped = acc.vbr_dropped;
            cell.reroutes = acc.reroutes;
            cell.unroutable = acc.unroutable;
            cell.link_lost = acc.link_lost;
            cell.cbr_restored = acc.cbr_restored;
            cell.cbr_degraded = acc.cbr_degraded;
            cell.cbr_abandoned = acc.cbr_abandoned;
            cell.cbr_restore_retries = acc.cbr_restore_retries;
            cell.restore_lost = acc.restore_lost;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

void
observeNetPoint(const NetSweepSpec& spec, int engine_threads,
                LanMetricsSeries& series)
{
    validateSpec(spec);

    // Grid point: topology 0, the highest load on the axis, replicate
    // 0. Runs are topo-major then load then replicate, so this point's
    // run_index — and with it every seed — matches the sweep's.
    size_t li = 0;
    for (size_t i = 1; i < spec.loads.size(); ++i)
        if (spec.loads[i] > spec.loads[li])
            li = i;
    const int run_index = static_cast<int>(li) * spec.replicates;

    Topology topo = spec.topos[0].make();
    runPoint(spec, topo, spec.loads[li], run_index, engine_threads,
             &series);
}

namespace {

void
writeAggregate(harness::JsonWriter& w, const char* name,
               const harness::Aggregate& a)
{
    w.key(name).beginObject();
    w.key("mean").value(a.mean);
    w.key("stddev").value(a.stddev);
    w.key("ci95").value(a.ci95);
    w.key("min").value(a.min);
    w.key("max").value(a.max);
    w.endObject();
}

}  // namespace

std::string
netSweepToJson(const NetSweepSpec& spec,
               const std::vector<NetCellSummary>& cells)
{
    harness::JsonWriter w;
    w.beginObject();

    w.key("meta").beginObject();
    w.key("schema").value("an2.netsweep.v1");
    w.key("experiment").value(spec.name);
    w.key("description").value(spec.description);
    w.key("workload").value(patternName(spec.pattern));
    w.key("frames").value(static_cast<int64_t>(spec.frames));
    w.key("frame_slots").value(spec.net.switch_frame_slots);
    w.key("cbr_cells_per_frame").value(spec.cbr_cells_per_frame);
    w.key("replicates").value(spec.replicates);
    w.key("base_seed").value(std::to_string(spec.base_seed));
    w.key("seeding")
        .value("seed(i, stream) = splitmix64(base_seed + phi64*(2i + stream "
               "+ 1)); lan (clocks/matchers/injection): stream 0, "
               "i = run_index; placement: stream 1, i = run_index; runs "
               "are topo-major, then load, then replicate");
    const bool faulted = !spec.faults.empty() || spec.chaos.enabled();
    if (!spec.faults.empty())
        w.key("faults").value(spec.faults.str());
    if (spec.chaos.enabled())
        w.key("chaos").value(spec.chaos.str());
    if (spec.restore) {
        w.key("restore").beginObject();
        w.key("retry_budget").value(spec.restore_policy.retry_budget);
        w.key("base_backoff_slots")
            .value(spec.restore_policy.base_backoff_slots);
        w.key("max_backoff_slots")
            .value(spec.restore_policy.max_backoff_slots);
        w.key("jitter_slots").value(spec.restore_policy.jitter_slots);
        w.key("allow_degraded").value(spec.restore_policy.allow_degraded);
        w.endObject();
    }
    w.endObject();

    w.key("axes").beginObject();
    w.key("topo").beginArray();
    for (const NetTopoSpec& t : spec.topos)
        w.value(t.name);
    w.endArray();
    w.key("load").beginArray();
    for (double l : spec.loads)
        w.value(l);
    w.endArray();
    w.endObject();

    w.key("cells").beginArray();
    for (const NetCellSummary& cell : cells) {
        w.beginObject();
        w.key("topo").value(cell.topo);
        w.key("load").value(cell.load);
        w.key("replicates").value(cell.replicates);
        writeAggregate(w, "throughput", cell.throughput);
        writeAggregate(w, "mean_wall_latency_ps", cell.mean_wall_latency_ps);
        writeAggregate(w, "mean_adjusted_latency_ps",
                       cell.mean_adjusted_latency_ps);
        w.key("injected").value(cell.injected);
        w.key("delivered").value(cell.delivered);
        w.key("vbr_dropped").value(cell.vbr_dropped);
        if (faulted) {
            w.key("reroutes").value(cell.reroutes);
            w.key("unroutable").value(cell.unroutable);
            w.key("link_lost").value(cell.link_lost);
        }
        if (spec.restore) {
            w.key("cbr_restored").value(cell.cbr_restored);
            w.key("cbr_degraded").value(cell.cbr_degraded);
            w.key("cbr_abandoned").value(cell.cbr_abandoned);
            w.key("cbr_restore_retries").value(cell.cbr_restore_retries);
            w.key("restore_lost").value(cell.restore_lost);
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

}  // namespace an2::topo
