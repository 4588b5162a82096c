/**
 * @file
 * Extension bench: multicast scheduling (§2 mentions AN2 supports
 * multicast flows). Saturated multicast traffic with varying fanout,
 * three service models:
 *  - fanout splitting: residue is re-scheduled in later slots,
 *  - no splitting (all-or-nothing transmissions),
 *  - unicast replication: the source sends F separate copies (the
 *    fallback if the fabric could not replicate).
 * Reported: delivered copies per output link per slot.
 */
#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/multicast.h"
#include "an2/matching/pim.h"
#include "bench_common.h"

namespace {

using namespace an2;

constexpr int kN = 16;
constexpr int kSlots = 20'000;

/** Saturated per-input queue of multicast cells with fixed fanout. */
struct McQueue
{
    std::deque<std::vector<PortId>> cells;  // each = remaining fanout
};

double
runMulticast(int fanout, bool splitting)
{
    MulticastPimConfig cfg;
    cfg.fanout_splitting = splitting;
    cfg.iterations = 4;
    cfg.seed = 17;
    MulticastPim pim(kN, cfg);
    Xoshiro256 rng(23);

    std::vector<McQueue> queues(kN);
    auto refill = [&](McQueue& q) {
        while (q.cells.size() < 4) {
            std::set<PortId> outs;
            while (static_cast<int>(outs.size()) < fanout)
                outs.insert(static_cast<PortId>(rng.nextBelow(kN)));
            q.cells.emplace_back(outs.begin(), outs.end());
        }
    };

    int64_t delivered = 0;
    for (int slot = 0; slot < kSlots; ++slot) {
        std::vector<MulticastRequest> reqs;
        std::vector<int> req_input;
        for (PortId i = 0; i < kN; ++i) {
            refill(queues[static_cast<size_t>(i)]);
            reqs.push_back({i, queues[static_cast<size_t>(i)].cells.front()});
        }
        MulticastMatch m = pim.match(reqs);
        delivered += m.deliveries;
        for (size_t r = 0; r < reqs.size(); ++r) {
            if (m.won[r].empty())
                continue;
            auto& head = queues[static_cast<size_t>(reqs[r].input)]
                             .cells.front();
            std::vector<PortId> residue;
            for (PortId j : head)
                if (!std::binary_search(m.won[r].begin(), m.won[r].end(), j))
                    residue.push_back(j);
            if (residue.empty())
                queues[static_cast<size_t>(reqs[r].input)].cells.pop_front();
            else
                head = residue;
        }
    }
    return static_cast<double>(delivered) / (kSlots * kN);
}

double
runUnicastReplication(int fanout)
{
    // The source expands each multicast cell into `fanout` unicast cells
    // and PIM schedules them individually.
    PimMatcher pim(PimConfig{.iterations = 4, .seed = 29});
    Xoshiro256 rng(31);
    std::vector<std::deque<PortId>> queues(kN);
    auto refill = [&](std::deque<PortId>& q) {
        while (q.size() < 8) {
            std::set<PortId> outs;
            while (static_cast<int>(outs.size()) < fanout)
                outs.insert(static_cast<PortId>(rng.nextBelow(kN)));
            for (PortId j : outs)
                q.push_back(j);
        }
    };
    int64_t delivered = 0;
    for (int slot = 0; slot < kSlots; ++slot) {
        RequestMatrix req(kN);
        for (PortId i = 0; i < kN; ++i) {
            refill(queues[static_cast<size_t>(i)]);
            // VOQ view: all queued copies are eligible.
            for (PortId j : queues[static_cast<size_t>(i)])
                req.set(i, j, true);
        }
        Matching m = pim.match(req);
        delivered += m.size();
        for (auto [i, j] : m.pairs()) {
            auto& q = queues[static_cast<size_t>(i)];
            q.erase(std::find(q.begin(), q.end(), j));
        }
    }
    return static_cast<double>(delivered) / (kSlots * kN);
}

}  // namespace

int
main()
{
    an2::bench::banner(
        "Extension -- multicast scheduling: splitting vs atomic vs unicast",
        "Anderson et al. 1992, Section 2 (multicast support, undescribed)");
    std::printf("  16x16, saturated multicast queues; delivered copies per"
                " output link per slot:\n\n");
    std::printf("  %7s  %12s  %12s  %12s\n", "fanout", "splitting",
                "no-split", "unicast-rep");
    for (int fanout : {1, 2, 4, 8}) {
        std::printf("  %7d  %12.3f  %12.3f  %12.3f\n", fanout,
                    runMulticast(fanout, true),
                    runMulticast(fanout, false),
                    runUnicastReplication(fanout));
    }
    std::printf(
        "\n  Reading the table: splitting utilization grows with fanout"
        " (more ways to\n  keep outputs busy) while all-or-nothing"
        " collapses - winning 8 grants at once\n  is hopeless. Unicast"
        " replication posts high *output* utilization because its\n"
        "  copies sit in VOQs (no multicast-FIFO HOL blocking), but every"
        " original cell\n  costs it F transmissions of the source link -"
        " under finite offered load the\n  replicating source saturates"
        " F times sooner than a true multicast one.\n");
    return 0;
}
