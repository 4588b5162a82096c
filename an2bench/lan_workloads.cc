/**
 * @file
 * The LAN workloads: a fat-tree Topology instantiated as a Lan, a uniform
 * VBR + CBR traffic matrix placed on it, and Lan::run driven one switch
 * frame at a time, serially or on the sharded ParallelNet engine.
 *
 * Lan::runFrames(n) runs to an absolute horizon of n frames, so frame f
 * of the measured loop is runFrames(f). Traced, each frame and each
 * set-up step is one span; the engine's threads are never traced.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "an2/matching/pim.h"
#include "an2/topo/lan.h"
#include "an2/topo/topology.h"
#include "trace.h"
#include "workloads.h"

namespace an2bench {

namespace {

using an2::FlowId;
using an2::topo::Lan;
using an2::topo::LanStats;
using an2::topo::Topology;

struct LanSpec
{
    const char* name;
    int k;               ///< fat-tree arity
    int hosts_per_edge;
    int threads;         ///< engine threads of the timed run (1 = serial)
    int check_threads;   ///< engine threads of the invariance check
    int64_t warmup_frames;
    int64_t horizon_frames;  ///< frames the simulated statistics cover
};

constexpr LanSpec kSpecs[] = {
    {"lan_k16_par2", 16, 16, 2, 4, 1, 8},
    {"lan_k8_serial", 8, 8, 1, 2, 1, 8},
};

constexpr double kVbrRate = 0.1;  ///< cells/slot per VBR flow
constexpr int kCbrCells = 1;      ///< cells/frame per CBR flow
/** Stop even short of the simulated horizon after this much host time. */
constexpr int64_t kHardLimitNs = 120'000'000'000;

/** A built LAN; the topology outlives the Lan that refers to it. */
struct LanInstance
{
    std::unique_ptr<Topology> topo;
    std::unique_ptr<Lan> lan;
    int vbr_placed = 0;
    int cbr_placed = 0;
};

/** Host time of each set-up step, one entry per set-up. */
struct SetupTimes
{
    std::vector<double> build_s;
    std::vector<double> construct_s;
    std::vector<double> place_s;
    std::vector<double> total_s;
};

std::unique_ptr<LanInstance>
build(const LanSpec& spec, uint64_t seed, Tracer* tr, SetupTimes& times)
{
    auto in = std::make_unique<LanInstance>();
    const int64_t t0 = nowNs();
    in->topo = std::make_unique<Topology>(
        Topology::fatTree(spec.k, spec.hosts_per_edge));
    const int64_t t1 = nowNs();

    an2::topo::LanConfig config;
    config.seed = deriveSeed(seed, 4);
    config.matcher = [](int, uint64_t matcher_seed) {
        an2::PimConfig cfg;
        cfg.iterations = 4;
        cfg.seed = matcher_seed;
        return std::make_unique<an2::PimMatcher>(cfg);
    };
    in->lan = std::make_unique<Lan>(*in->topo, config);
    const int64_t t2 = nowNs();

    const uint64_t place_seed = deriveSeed(seed, 5);
    in->vbr_placed = in->lan->placeMatrix(
        an2::topo::Pattern::Uniform,
        an2::topo::TrafficSpec{an2::TrafficClass::VBR, kVbrRate, 0},
        place_seed);
    in->cbr_placed = in->lan->placeMatrix(
        an2::topo::Pattern::Uniform,
        an2::topo::TrafficSpec{an2::TrafficClass::CBR, 0.0, kCbrCells},
        place_seed + 1);
    const int64_t t3 = nowNs();

    if (tr != nullptr) {
        tr->leaf(SpanKind::TopoBuild, t0, t1);
        tr->leaf(SpanKind::LanConstruct, t1, t2);
        tr->leaf(SpanKind::Place, t2, t3);
    }
    times.build_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    times.construct_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    times.place_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
    times.total_s.push_back(static_cast<double>(t3 - t0) * 1e-9);
    return in;
}

/** Every field of two LanStats, compared exactly. */
bool
sameStats(const LanStats& a, const LanStats& b)
{
    return a.injected == b.injected && a.delivered == b.delivered &&
           a.order_violations == b.order_violations &&
           a.link_lost == b.link_lost && a.vbr_dropped == b.vbr_dropped &&
           a.cbr_forwarded == b.cbr_forwarded &&
           a.vbr_forwarded == b.vbr_forwarded && a.reroutes == b.reroutes &&
           a.unroutable == b.unroutable &&
           a.mean_wall_latency_ps == b.mean_wall_latency_ps &&
           a.mean_adjusted_latency_ps == b.mean_adjusted_latency_ps &&
           a.cbr_injected == b.cbr_injected &&
           a.vbr_injected == b.vbr_injected &&
           a.cbr_delivered == b.cbr_delivered &&
           a.vbr_delivered == b.vbr_delivered &&
           a.mean_cbr_wall_latency_ps == b.mean_cbr_wall_latency_ps &&
           a.mean_vbr_wall_latency_ps == b.mean_vbr_wall_latency_ps &&
           a.restore_lost == b.restore_lost;
}

/** 99th percentile over flows of each flow's mean latency, in slots. */
double
flowDelayP99Slots(const Lan& lan)
{
    std::vector<double> means;
    for (FlowId f = 0; f < lan.numFlows(); ++f) {
        const an2::Controller& sink =
            lan.net().controller(lan.flowInfo(f).dst);
        if (sink.hasDeliveries(f))
            means.push_back(sink.deliveryStats(f).wall_latency_ps.mean());
    }
    return quantile(std::move(means), 0.99) /
           static_cast<double>(lan.net().config().slot_ps);
}

/** Reserved switch slots per frame: each CBR flow at every switch. */
double
bookedSwitchSlotsPerFrame(const Lan& lan)
{
    double booked = 0.0;
    for (FlowId f = 0; f < lan.numFlows(); ++f) {
        const Lan::FlowInfo info = lan.flowInfo(f);
        if (info.cls != an2::TrafficClass::CBR)
            continue;
        const size_t hops = lan.flowPath(f).size();
        booked += static_cast<double>(info.cbr_admitted) *
                  static_cast<double>(hops >= 2 ? hops - 2 : 0);
    }
    return booked;
}

void
addSimulated(Report& report, const Lan& lan, const LanStats& s)
{
    const auto slot_ps = static_cast<double>(lan.net().config().slot_ps);
    auto& sim = report.simulated;
    Report::add(sim, "sim_delay_mean_slots", s.mean_wall_latency_ps / slot_ps,
                "slots");
    Report::add(sim, "sim_delay_p99_slots", flowDelayP99Slots(lan), "slots");
    Report::add(sim, "sim_delivered_ratio",
                s.injected > 0 ? static_cast<double>(s.delivered) /
                                     static_cast<double>(s.injected)
                               : 0.0,
                "ratio");
    Report::add(sim, "injected", static_cast<double>(s.injected), "cells");
    Report::add(sim, "delivered", static_cast<double>(s.delivered), "cells");
    Report::add(sim, "cbr_forwarded", static_cast<double>(s.cbr_forwarded),
                "cells");
    Report::add(sim, "vbr_forwarded", static_cast<double>(s.vbr_forwarded),
                "cells");
    Report::add(sim, "vbr_dropped", static_cast<double>(s.vbr_dropped),
                "cells");
    Report::add(sim, "mean_adjusted_latency_ps", s.mean_adjusted_latency_ps,
                "ps");
}

/**
 * Time set-up until setupAgain() is satisfied, appending to `times`;
 * returns the last instance built.
 */
std::unique_ptr<LanInstance>
timeSetups(const LanSpec& spec, uint64_t seed, Tracer* tr, SetupTimes& times)
{
    std::unique_ptr<LanInstance> in;
    const int64_t start = nowNs();
    for (size_t done = 0; setupAgain(done, nowNs() - start); ++done) {
        in.reset();
        in = build(spec, seed, tr, times);
    }
    return in;
}

}  // namespace

bool
runLanWorkload(const RunOptions& opt, Report& report)
{
    const LanSpec* found = nullptr;
    for (const LanSpec& s : kSpecs)
        if (opt.workload == s.name)
            found = &s;
    if (found == nullptr)
        return false;
    const LanSpec& spec = *found;

    Tracer tracer(opt.trace ? size_t{1} << 16 : 0);
    Tracer* tr = opt.trace ? &tracer : nullptr;

    // Set-up, timed several times; only the last instance runs.
    SetupTimes setup;
    std::unique_ptr<LanInstance> in = timeSetups(spec, opt.seed, tr, setup);
    const int hosts = in->topo->numHosts();
    report.check(in->vbr_placed == hosts && in->cbr_placed == hosts,
                 "every host got one VBR and one CBR flow");
    const double rss_setup = currentRssMb();

    Lan& lan = *in->lan;
    for (int64_t f = 1; f <= spec.warmup_frames; ++f)
        lan.runFrames(f, spec.threads);
    const double rss_warm = currentRssMb();

    const auto budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
    const int64_t frame_slots = lan.net().config().switch_frame_slots;
    std::vector<double> frame_s, slot_rates, cell_rates;
    LanStats prev = lan.stats();
    const LanStats first = prev;
    const int64_t windows0 = lan.shardWindows();
    LanStats at_horizon;
    bool horizon_reached = false;

    const int64_t start = nowNs();
    if (tr != nullptr)
        tr->open(SpanKind::Measure, start);
    int64_t t = start;
    int64_t f = spec.warmup_frames;
    while (true) {
        ++f;
        const int64_t t0 = t;
        lan.runFrames(f, spec.threads);
        const int64_t t1 = nowNs();
        LanStats now = lan.stats();
        t = nowNs();
        if (tr != nullptr) {
            tr->leaf(SpanKind::Frame, t0, t1);
            tr->leaf(SpanKind::Stats, t1, t);
        }
        const double secs = static_cast<double>(t1 - t0) * 1e-9;
        frame_s.push_back(secs);
        slot_rates.push_back(static_cast<double>(frame_slots) / secs);
        cell_rates.push_back(
            static_cast<double>(now.delivered - prev.delivered) / secs);
        prev = now;
        if (f == spec.horizon_frames) {
            at_horizon = now;
            horizon_reached = true;
            addSimulated(report, lan, now);
        }
        const int64_t elapsed = t - start;
        if ((elapsed >= budget_ns && horizon_reached) ||
            elapsed >= kHardLimitNs)
            break;
    }
    if (tr != nullptr)
        tr->close(SpanKind::Measure, t);
    report.check(horizon_reached,
                 "the simulated horizon was reached in the time limit");

    const auto frames = static_cast<double>(frame_s.size());
    double run_s = 0.0;
    for (double s : frame_s)
        run_s += s;
    const LanStats last = prev;
    const auto forwards = static_cast<double>(
        last.cbr_forwarded + last.vbr_forwarded - first.cbr_forwarded -
        first.vbr_forwarded);
    const double booked = bookedSwitchSlotsPerFrame(lan) * frames;
    const double windows =
        static_cast<double>(lan.shardWindows() - windows0);
    const double cbr_fwd =
        static_cast<double>(last.cbr_forwarded - first.cbr_forwarded);
    report.check(last.order_violations == 0, "every flow delivered in order");
    report.check(last.delivered > 0 && last.delivered <= last.injected,
                 "0 < delivered <= injected");

    Report::add(report.end_to_end, "sim_slots_per_s",
                quantile(slot_rates, kSteadyQuantile), "slots/s");
    Report::add(report.end_to_end, "cells_per_s",
                quantile(cell_rates, kSteadyQuantile), "cells/s");

    // A second burst of set-ups, after the timed instance is gone (so peak
    // memory stays one LAN's): a slow phase of the host now rarely covers
    // both bursts.
    in.reset();
    timeSetups(spec, opt.seed, nullptr, setup);
    Report::add(report.end_to_end, "setup_s",
                quantile(setup.total_s, 1 - kSteadyQuantile), "s");

    // Engine invariance: the same seed on another engine thread count,
    // run straight to the horizon, must give identical statistics.
    if (horizon_reached) {
        SetupTimes unused;
        std::unique_ptr<LanInstance> again =
            build(spec, opt.seed, nullptr, unused);
        again->lan->runFrames(spec.horizon_frames, spec.check_threads);
        report.check(sameStats(again->lan->stats(), at_horizon),
                     "LanStats at the horizon are identical on " +
                         std::to_string(spec.threads) + " and " +
                         std::to_string(spec.check_threads) +
                         " engine threads");
    }
    Report::add(report.end_to_end, "peak_rss_mb", peakRssMb(), "MiB");
    for (const Metric& s : report.simulated)
        if (s.name.rfind("sim_", 0) == 0)
            report.end_to_end.push_back(s);

    Report::add(report.info, "warmup_frames",
                static_cast<double>(spec.warmup_frames), "frames");
    Report::add(report.info, "horizon_frames",
                static_cast<double>(spec.horizon_frames), "frames");
    Report::add(report.info, "measured_frames", frames, "frames");
    Report::add(report.info, "measured_s",
                static_cast<double>(t - start) * 1e-9, "s");
    Report::add(report.info, "setup_reps",
                static_cast<double>(setup.total_s.size()), "count");
    Report::add(report.info, "engine_threads", spec.threads, "count");

    if (!opt.trace)
        return true;

    const SpanTotals& root = tracer.totals(SpanKind::Measure);
    auto& pl = report.per_layer;
    Report::add(pl, "topo.build_s",
                quantile(setup.build_s, 1 - kSteadyQuantile), "s");
    Report::add(pl, "topo.lan_construct_s",
                quantile(setup.construct_s, 1 - kSteadyQuantile), "s");
    Report::add(pl, "topo.place_s",
                quantile(setup.place_s, 1 - kSteadyQuantile), "s");
    Report::add(pl, "topo.stats_ms_per_frame",
                static_cast<double>(tracer.totals(SpanKind::Stats).total_ns) *
                    1e-6 / frames,
                "ms");
    Report::add(pl, "network.frame_ms_p50", quantile(frame_s, 0.5) * 1e3,
                "ms");
    Report::add(pl, "network.frame_ms_p90", quantile(frame_s, 0.9) * 1e3,
                "ms");
    Report::add(pl, "network.ns_per_switch_forward",
                run_s * 1e9 / std::max(forwards, 1.0), "ns");
    Report::add(pl, "network.windows_per_frame", windows / frames, "count");
    Report::add(pl, "cbr.cells_per_slot",
                cbr_fwd / (frames * static_cast<double>(frame_slots)),
                "cells");
    Report::add(pl, "cbr.reservation_use_ratio",
                booked > 0 ? cbr_fwd / booked : 0.0, "ratio");
    Report::add(pl, "mem.rss_after_setup_mb", rss_setup, "MiB");
    Report::add(pl, "mem.rss_growth_mb", rss_warm - rss_setup, "MiB");
    Report::add(pl, "trace.coverage_ratio",
                static_cast<double>(root.total_ns - root.self_ns) /
                    static_cast<double>(root.total_ns),
                "ratio");
    Report::add(report.info, "spans_recorded",
                static_cast<double>(tracer.recorded()), "count");
    if (!opt.spans_path.empty())
        report.check(tracer.write(opt.spans_path),
                     "spans written to " + opt.spans_path);
    return true;
}

}  // namespace an2bench
