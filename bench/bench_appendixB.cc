/**
 * @file
 * Appendix B: end-to-end latency and buffer bounds for CBR traffic under
 * unsynchronized clocks. A chain of p switches with adversarial clock
 * errors (fast source controller, alternating fast/slow switches) carries
 * an always-backlogged CBR flow; the bench reports the measured maximum
 * adjusted latency against Formula 3's bound 2p(F_s-max + l), and the
 * measured peak per-switch buffer occupancy against Formula 5's bound.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "an2/cbr/timing.h"
#include "an2/network/network.h"
#include "bench_common.h"

namespace {

using namespace an2;
using an2::bench::makePim;

constexpr double kTol = 0.005;       // 0.5% clock tolerance
constexpr int kFrame = 50;           // switch frame slots
constexpr PicoTime kSlotPs = 1000;   // arbitrary wall unit
constexpr PicoTime kLinkPs = 2000;   // link latency + switch overhead
constexpr int kCellsPerFrame = 5;

struct HopResult
{
    int hops;
    double measured_latency;
    double latency_bound;
    int measured_buffer;
    double buffer_bound;
    int measured_active_frames;
    double active_frames_bound;
    int64_t delivered;
    int64_t order_violations;
};

HopResult
runChain(int hops)
{
    NetworkConfig cfg;
    cfg.slot_ps = kSlotPs;
    cfg.switch_frame_slots = kFrame;
    cfg.controller_padding = minControllerPadding(kFrame, kTol);
    Network net(cfg);

    NodeId src = net.addController(+kTol, 1);
    std::vector<NodeId> switches;
    for (int h = 0; h < hops; ++h) {
        double err = (h % 2 == 0) ? -kTol : +kTol;
        switches.push_back(net.addSwitch(
            2, err, makePim(4, 100 + static_cast<uint64_t>(h))));
    }
    NodeId dst = net.addController(-kTol, 2);

    net.connect(src, 0, switches.front(), 0, kLinkPs);
    for (int h = 0; h + 1 < hops; ++h)
        net.connect(switches[static_cast<size_t>(h)], 1,
                    switches[static_cast<size_t>(h + 1)], 0, kLinkPs);
    net.connect(switches.back(), 1, dst, 0, kLinkPs);

    std::vector<NodeId> path;
    path.push_back(src);
    for (NodeId s : switches)
        path.push_back(s);
    path.push_back(dst);
    FlowId flow = net.addCbrFlow(path, kCellsPerFrame);

    net.runFrames(1500);

    FrameTiming t = makeFrameTiming(
        kFrame, kFrame + cfg.controller_padding,
        static_cast<double>(kSlotPs), kTol, static_cast<double>(kLinkPs));

    HopResult res{};
    res.hops = hops;
    const auto& stats = net.controller(dst).deliveryStats(flow);
    res.delivered = stats.delivered;
    res.order_violations = stats.order_violations;
    res.measured_latency = stats.adjusted_latency_ps.max();
    res.latency_bound = latencyBound(t, hops);
    res.buffer_bound = bufferBound(t, hops) * kCellsPerFrame;
    res.measured_buffer = 0;
    res.measured_active_frames = 0;
    res.active_frames_bound = maxActiveFrames(t, hops);
    for (NodeId s : switches) {
        const NetSwitch& sw = net.netSwitch(s);
        res.measured_buffer =
            std::max(res.measured_buffer, sw.maxQueuedCells(flow));
        res.measured_active_frames =
            std::max(res.measured_active_frames, sw.maxActiveFrames(flow));
    }
    return res;
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Appendix B -- CBR latency & buffer bounds under clock drift",
        "Anderson et al. 1992, Appendix B, Formulas 3 and 5");
    std::printf("  chain of p switches, +/-%.1f%% clocks, frame=%d slots,"
                " reservation=%d cells/frame\n\n",
                100 * kTol, kFrame, kCellsPerFrame);
    std::printf("  %4s  %13s %12s   %9s %9s   %9s %9s   %8s %4s\n", "p",
                "adj.lat (max)", "bound (F.3)", "buf (max)", "bnd (F.5)",
                "actv.frm", "bound", "deliverd", "ooo");
    bool all_hold = true;
    for (int hops : {1, 2, 4, 6, 8}) {
        HopResult r = runChain(hops);
        bool ok = r.measured_latency <= r.latency_bound &&
                  r.measured_buffer <= std::ceil(r.buffer_bound) &&
                  r.measured_active_frames <= r.active_frames_bound &&
                  r.order_violations == 0;
        all_hold = all_hold && ok;
        std::printf("  %4d  %13.0f %12.0f   %9d %9.1f   %9d %9.0f   %8lld"
                    " %4lld%s\n",
                    r.hops, r.measured_latency, r.latency_bound,
                    r.measured_buffer, r.buffer_bound,
                    r.measured_active_frames, r.active_frames_bound,
                    static_cast<long long>(r.delivered),
                    static_cast<long long>(r.order_violations),
                    ok ? "" : "  ** BOUND VIOLATED **");
    }
    std::printf("\n  %s\n", all_hold
                                ? "All measured values within the Appendix B "
                                  "bounds; no reordering."
                                : "BOUND VIOLATION DETECTED -- investigate!");
    return all_hold ? 0 : 1;
}
