/**
 * @file
 * Section 4 future work, implemented and measured: subdividing the frame
 * trades allocation granularity for guaranteed latency. Two flows with
 * the same bandwidth (16 cells per 128-slot frame) cross a 4x4 switch
 * under saturating datagram load; one is frame-class, the other
 * subframe-class (2 cells in each of 8 subframes). The bench reports the
 * delay distribution each flow's cells experience.
 */
#include <cstdio>
#include <memory>

#include "an2/base/stats.h"
#include "an2/cbr/subframes.h"
#include "an2/sim/iq_switch.h"
#include "bench_common.h"

namespace {

using namespace an2;
using an2::bench::makePim;

constexpr int kN = 4;
constexpr int kFrame = 128;
constexpr int kSubframes = 8;
constexpr int kCellsPerFrame = 16;

struct DelayResult
{
    double mean;
    int64_t p99;
    double max;
};

DelayResult
run(bool subframe_class)
{
    SubframeScheduler ss(kN, kFrame, kSubframes);
    bool ok = subframe_class
                  ? ss.addSubframeReservation(1, 2,
                                              kCellsPerFrame / kSubframes)
                  : ss.addFrameReservation(1, 2, kCellsPerFrame);
    AN2_REQUIRE(ok, "reservation failed");
    InputQueuedSwitch sw({.n = kN}, makePim(4, 31), &ss.schedule());

    Xoshiro256 rng(32);
    RunningStats delay;
    LogHistogram hist;
    int64_t seq = 0;
    for (SlotTime slot = 0; slot < 500 * kFrame; ++slot) {
        // Paced CBR source: kCellsPerFrame spread evenly over the frame.
        if (slot % (kFrame / kCellsPerFrame) == 0) {
            Cell c;
            c.flow = 7;
            c.input = 1;
            c.output = 2;
            c.cls = TrafficClass::CBR;
            c.seq = seq++;
            c.inject_slot = slot;
            sw.acceptCell(c);
        }
        // Saturating datagram background.
        for (PortId i = 0; i < kN; ++i) {
            auto j = static_cast<PortId>(rng.nextBelow(kN));
            Cell v;
            v.flow = 100 + i * kN + j;
            v.input = i;
            v.output = j;
            v.inject_slot = slot;
            sw.acceptCell(v);
        }
        for (const Cell& d : sw.runSlot(slot)) {
            if (d.flow != 7)
                continue;
            const SlotTime dl = slot - d.inject_slot;
            delay.add(static_cast<double>(dl));
            hist.add(dl);
        }
    }
    return {delay.mean(), hist.quantile(0.99), delay.max()};
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Section 4 future work -- subdivided frames, measured",
        "Anderson et al. 1992, Section 4 (frame subdivision trade-off)");
    std::printf("  4x4 switch, %d-slot frame, %d cells/frame reserved,"
                " saturating VBR background.\n  CBR cell delay in slots:\n\n",
                kFrame, kCellsPerFrame);
    std::printf("  %-32s  %8s  %8s  %8s  %s\n", "service class", "mean",
                "p99", "max", "granule (cells/frame)");
    DelayResult frame_class = run(false);
    std::printf("  %-32s  %8.1f  %8lld  %8.0f  %d\n",
                "frame class (any placement)", frame_class.mean,
                static_cast<long long>(frame_class.p99), frame_class.max,
                1);
    DelayResult sub_class = run(true);
    std::printf("  %-32s  %8.1f  %8lld  %8.0f  %d\n",
                "subframe class (every subframe)", sub_class.mean,
                static_cast<long long>(sub_class.p99), sub_class.max,
                kSubframes);
    std::printf("\n  The subframe-class flow's worst-case delay is bounded"
                " by ~2 subframes\n  (%d slots) instead of ~2 frames (%d"
                " slots), in exchange for allocating\n  bandwidth in"
                " granules of %d cells/frame instead of 1.\n",
                2 * kFrame / kSubframes, 2 * kFrame, kSubframes);
    return 0;
}
