/**
 * @file
 * The single-switch workloads: an AN2 InputQueuedSwitch fed by uniform
 * Bernoulli traffic, driven slot by slot through its public
 * acceptCell/runSlot interface, the way runSimulation drives it.
 *
 * The traced variant times each batch of calls into one layer with one
 * clock pair (all of a slot's acceptCell calls are one span) and wraps the
 * matcher in a forwarding decorator that times matchInto inside runSlot.
 */
#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "an2/base/rng.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/metrics.h"
#include "an2/sim/traffic.h"
#include "trace.h"
#include "workloads.h"

namespace an2bench {

namespace {

using an2::Cell;
using an2::FlowId;
using an2::PortId;
using an2::SlotTime;

struct SwitchSpec
{
    const char* name;
    int n;
    double load;      ///< VBR arrival probability per input per slot
    bool islip_warm;  ///< warm-start iSLIP(4); otherwise cold PIM(4)
    bool cbr;         ///< add the Slepian-Duguid CBR overlay
    SlotTime warmup;  ///< unmeasured slots before the timed interval
    SlotTime horizon; ///< measured slots the simulated statistics cover
};

constexpr SwitchSpec kSpecs[] = {
    {"iq1024_islip_warm", 1024, 0.9, true, false, 4'000, 2'500},
    {"iq16_pim_cbr", 16, 0.8, false, true, 20'000, 400'000},
};

constexpr int kFrameSlots = 32;
constexpr FlowId kCbrFlowBase = FlowId{1} << 30;
/** The measured interval is cut into this many rate samples. */
constexpr int kIntervals = 250;
/** Stop even short of the simulated horizon after this much host time. */
constexpr int64_t kHardLimitNs = 120'000'000'000;

/**
 * Forwards every call to the wrapped matcher. With a tracer attached it
 * records matchInto as a span (inside the enclosing runSlot span) and
 * counts the pairs matched against the most any matching could make.
 */
class TracingMatcher final : public an2::Matcher
{
  public:
    TracingMatcher(std::unique_ptr<an2::Matcher> inner, int n)
        : inner_(std::move(inner)),
          union_(static_cast<size_t>((n + 63) / 64), 0)
    {
    }

    an2::Matching match(const an2::RequestMatrix& req) override
    {
        return inner_->match(req);
    }

    void matchInto(const an2::RequestMatrix& req, an2::Matching& out) override
    {
        if (tracer_ == nullptr) {
            inner_->matchInto(req, out);
            return;
        }
        const int64_t t0 = nowNs();
        inner_->matchInto(req, out);
        const int64_t t1 = nowNs();
        tracer_->leaf(SpanKind::Match, t0, t1);
        countFill(req, out);
        tracer_->leaf(SpanKind::FillCount, t1, nowNs());
    }

    std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }

    void attach(Tracer* tracer) { tracer_ = tracer; }

    int64_t pairs() const { return pairs_; }

    /** Sum over calls of min(inputs requesting, outputs requested). */
    int64_t fillBound() const { return fill_bound_; }

  private:
    void countFill(const an2::RequestMatrix& req, const an2::Matching& out)
    {
        const int words = req.rowWords();
        std::fill(union_.begin(), union_.end(), 0);
        int64_t inputs = 0;
        for (PortId i = 0; i < req.numInputs(); ++i) {
            const uint64_t* row = req.rowMask(i);
            uint64_t any = 0;
            for (int w = 0; w < words; ++w) {
                union_[static_cast<size_t>(w)] |= row[w];
                any |= row[w];
            }
            inputs += any != 0;
        }
        int64_t outputs = 0;
        for (uint64_t w : union_)
            outputs += std::popcount(w);
        pairs_ += out.size();
        fill_bound_ += std::min(inputs, outputs);
    }

    std::unique_ptr<an2::Matcher> inner_;
    Tracer* tracer_ = nullptr;
    std::vector<uint64_t> union_;
    int64_t pairs_ = 0;
    int64_t fill_bound_ = 0;
};

/** One CBR reservation and the source that fills it every frame. */
struct Booking
{
    PortId input;
    PortId output;
    int cells;  ///< cells per frame
    FlowId flow;
    int64_t seq = 0;
};

/** Everything set-up builds; the slot loop only reads and drives it. */
struct SwitchInstance
{
    std::unique_ptr<an2::SlepianDuguidScheduler> sched;
    std::vector<Booking> bookings;
    int booked_per_frame = 0;
    bool bookings_admitted = true;
    TracingMatcher* tracing = nullptr;  ///< owned by sw; traced runs only
    std::unique_ptr<an2::InputQueuedSwitch> sw;
    std::unique_ptr<an2::UniformTraffic> traffic;
    std::unique_ptr<an2::MetricsCollector> metrics;
};

std::unique_ptr<SwitchInstance>
build(const SwitchSpec& spec, uint64_t seed, bool traced)
{
    auto in = std::make_unique<SwitchInstance>();
    const an2::FrameSchedule* schedule = nullptr;
    if (spec.cbr) {
        // Two seeded permutations at 2 and 1 cells per frame: every input
        // and output carries 3 reserved cells per 32-slot frame.
        in->sched = std::make_unique<an2::SlepianDuguidScheduler>(
            spec.n, kFrameSlots);
        an2::Xoshiro256 rng(deriveSeed(seed, 3));
        for (int cells : {2, 1}) {
            std::vector<PortId> perm(static_cast<size_t>(spec.n));
            std::iota(perm.begin(), perm.end(), 0);
            for (size_t i = perm.size() - 1; i > 0; --i)
                std::swap(perm[i], perm[rng.nextBelow(i + 1)]);
            for (PortId i = 0; i < spec.n; ++i) {
                const PortId j = perm[static_cast<size_t>(i)];
                in->bookings_admitted &=
                    in->sched->addReservation(i, j, cells);
                in->bookings.push_back(
                    {i, j, cells,
                     kCbrFlowBase + static_cast<FlowId>(in->bookings.size())});
                in->booked_per_frame += cells;
            }
        }
        schedule = &in->sched->schedule();
    }

    std::unique_ptr<an2::Matcher> matcher;
    if (spec.islip_warm) {
        matcher = std::make_unique<an2::IslipMatcher>(
            4, an2::MatcherBackend::Auto, an2::WarmStart::On);
    } else {
        an2::PimConfig cfg;
        cfg.iterations = 4;
        cfg.seed = deriveSeed(seed, 2);
        matcher = std::make_unique<an2::PimMatcher>(cfg);
    }
    if (traced) {
        auto wrapped =
            std::make_unique<TracingMatcher>(std::move(matcher), spec.n);
        in->tracing = wrapped.get();
        matcher = std::move(wrapped);
    }
    in->sw = std::make_unique<an2::InputQueuedSwitch>(
        an2::IqSwitchConfig{.n = spec.n}, std::move(matcher), schedule);
    in->traffic = std::make_unique<an2::UniformTraffic>(
        spec.n, spec.load, deriveSeed(seed, 1));
    in->metrics = std::make_unique<an2::MetricsCollector>(spec.warmup, spec.n);
    return in;
}

/** Per-slot scratch and running totals of the slot loop. */
struct LoopState
{
    std::vector<Cell> arrivals;
    std::vector<Cell> cbr_arrivals;
    int64_t cbr_injected = 0;
    int64_t vbr_accepted = 0;
    int64_t delivered = 0;  ///< every departure since slot 0
    double buffered_sum = 0.0;
};

/**
 * One slot: CBR sources at frame starts, VBR generation, acceptCell,
 * runSlot, metrics. Traced, each batch becomes one span whose end is the
 * next one's start; returns the time the slot ended (untraced, `t`).
 */
template <bool kTraced>
int64_t
stepSlot(const SwitchSpec& spec, SwitchInstance& in, LoopState& st,
         SlotTime slot, Tracer* tr, int64_t t)
{
    [[maybe_unused]] auto lap = [&](SpanKind kind) {
        const int64_t now = nowNs();
        tr->leaf(kind, t, now);
        t = now;
    };

    st.cbr_arrivals.clear();
    if (spec.cbr && slot % kFrameSlots == 0) {
        for (Booking& b : in.bookings) {
            for (int c = 0; c < b.cells; ++c) {
                Cell cell;
                cell.flow = b.flow;
                cell.input = b.input;
                cell.output = b.output;
                cell.cls = an2::TrafficClass::CBR;
                cell.seq = b.seq++;
                cell.inject_slot = slot;
                st.cbr_arrivals.push_back(cell);
            }
        }
        for (const Cell& c : st.cbr_arrivals)
            in.sw->acceptCell(c);
        st.cbr_injected += static_cast<int64_t>(st.cbr_arrivals.size());
        if constexpr (kTraced)
            lap(SpanKind::CbrAccept);
    }

    st.arrivals.clear();
    in.traffic->generate(slot, st.arrivals);
    if constexpr (kTraced)
        lap(SpanKind::Traffic);

    for (const Cell& c : st.arrivals)
        in.sw->acceptCell(c);
    st.vbr_accepted += static_cast<int64_t>(st.arrivals.size());
    if constexpr (kTraced) {
        lap(SpanKind::Accept);
        tr->open(SpanKind::Slot, t);
    }

    const std::vector<Cell>& departed = in.sw->runSlot(slot);
    if constexpr (kTraced) {
        t = nowNs();
        tr->close(SpanKind::Slot, t);
    }

    for (const Cell& c : st.cbr_arrivals)
        in.metrics->noteInjected(c);
    for (const Cell& c : st.arrivals)
        in.metrics->noteInjected(c);
    for (const Cell& c : departed)
        in.metrics->noteDelivered(c, slot);
    st.delivered += static_cast<int64_t>(departed.size());
    const int buffered = in.sw->bufferedCells();
    in.metrics->noteOccupancy(buffered);
    st.buffered_sum += buffered;
    if constexpr (kTraced)
        lap(SpanKind::Metrics);
    return t;
}

/** What the measured interval produced. */
struct Measured
{
    std::vector<double> slot_rates;  ///< slots/s per interval
    std::vector<double> cell_rates;  ///< delivered cells/s per interval
    SlotTime slots = 0;
    int64_t elapsed_ns = 0;
    bool horizon_reached = false;
};

/** Check cell conservation over the whole run so far. */
void
checkConservation(SwitchInstance& in, const LoopState& st, Report& report,
                  const char* when)
{
    const int64_t injected = in.traffic->cellsInjected() + st.cbr_injected;
    const int64_t buffered = in.sw->bufferedCells();
    const int64_t dropped = in.sw->droppedCells();
    report.check(injected == st.delivered + buffered + dropped,
                 std::string("cell conservation ") + when + ": " +
                     std::to_string(injected) + " injected != " +
                     std::to_string(st.delivered) + " delivered + " +
                     std::to_string(buffered) + " buffered + " +
                     std::to_string(dropped) + " dropped");
    report.check(in.sw->invariants().departed() == st.delivered,
                 std::string("switch ledger departures ") + when +
                     " match the cells the benchmark received");
}

/** Record the simulated statistics at the end of the horizon. */
void
snapshot(SwitchInstance& in, const LoopState& st, Report& report)
{
    const an2::MetricsCollector& m = *in.metrics;
    // Since slot 0, like the LAN's ratio (the collector's post-warmup
    // counts can exceed 1: cells injected in warmup leave after it).
    const auto injected =
        static_cast<double>(in.traffic->cellsInjected() + st.cbr_injected);
    const auto delivered = static_cast<double>(st.delivered);
    Report::add(report.simulated, "sim_delay_mean_slots", m.meanDelay(),
                "slots");
    Report::add(report.simulated, "sim_delay_p99_slots",
                m.delayQuantile(0.99), "slots");
    Report::add(report.simulated, "sim_delivered_ratio",
                injected > 0 ? delivered / injected : 0.0, "ratio");
    Report::add(report.simulated, "injected", injected, "cells");
    Report::add(report.simulated, "delivered", delivered, "cells");
    Report::add(report.simulated, "max_occupancy", m.maxOccupancy(), "cells");
    Report::add(report.simulated, "cbr_forwarded",
                static_cast<double>(in.sw->cbrForwarded()), "cells");
    Report::add(report.simulated, "buffered_sum", st.buffered_sum, "cells");
    checkConservation(in, st, report, "at the horizon");
    report.check(delivered > 0 && m.meanDelay() > 0.0,
                 "cells were delivered with a positive delay");
}

template <bool kTraced>
Measured
measure(const SwitchSpec& spec, SwitchInstance& in, LoopState& st,
        const RunOptions& opt, Tracer* tr, Report& report)
{
    Measured out;
    const auto budget_ns = static_cast<int64_t>(opt.seconds * 1e9);
    const int64_t interval_ns = budget_ns / kIntervals;
    // Untraced, read the clock every few slots when slots are short.
    const SlotTime stride = kTraced || spec.n >= 256 ? 1 : 64;
    const SlotTime horizon_end = spec.warmup + spec.horizon;

    const int64_t start = nowNs();
    int64_t t = start;
    int64_t iv_start = start;
    SlotTime iv_slot = spec.warmup;
    int64_t iv_cells = st.delivered;
    if constexpr (kTraced)
        tr->open(SpanKind::Measure, start);
    SlotTime slot = spec.warmup;
    while (true) {
        t = stepSlot<kTraced>(spec, in, st, slot, tr, t);
        ++slot;
        if (slot == horizon_end) {
            snapshot(in, st, report);
            out.horizon_reached = true;
        }
        if ((slot - spec.warmup) % stride != 0)
            continue;
        if constexpr (!kTraced)
            t = nowNs();
        if (t - iv_start >= interval_ns) {
            const double secs = static_cast<double>(t - iv_start) * 1e-9;
            out.slot_rates.push_back(static_cast<double>(slot - iv_slot) /
                                     secs);
            out.cell_rates.push_back(
                static_cast<double>(st.delivered - iv_cells) / secs);
            iv_start = t;
            iv_slot = slot;
            iv_cells = st.delivered;
        }
        const int64_t elapsed = t - start;
        if ((elapsed >= budget_ns && out.horizon_reached) ||
            elapsed >= kHardLimitNs)
            break;
    }
    if constexpr (kTraced)
        tr->close(SpanKind::Measure, t);
    out.slots = slot - spec.warmup;
    out.elapsed_ns = t - start;
    return out;
}

/**
 * Time set-up until setupAgain() is satisfied, appending each time to
 * `times`; returns the last instance built.
 */
std::unique_ptr<SwitchInstance>
timeSetups(const SwitchSpec& spec, const RunOptions& opt,
           std::vector<double>& times)
{
    std::unique_ptr<SwitchInstance> in;
    const int64_t start = nowNs();
    for (size_t done = 0; setupAgain(done, nowNs() - start); ++done) {
        in.reset();
        const int64_t t0 = nowNs();
        in = build(spec, opt.seed, opt.trace);
        times.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return in;
}

}  // namespace

bool
runSwitchWorkload(const RunOptions& opt, Report& report)
{
    const SwitchSpec* found = nullptr;
    for (const SwitchSpec& s : kSpecs)
        if (opt.workload == s.name)
            found = &s;
    if (found == nullptr)
        return false;
    const SwitchSpec& spec = *found;

    // Set-up, timed several times; only the last instance runs.
    std::vector<double> setup_s;
    std::unique_ptr<SwitchInstance> in = timeSetups(spec, opt, setup_s);
    report.check(in->bookings_admitted, "every CBR booking was admitted");
    const double rss_setup = currentRssMb();

    LoopState st;
    for (SlotTime slot = 0; slot < spec.warmup; ++slot)
        stepSlot<false>(spec, *in, st, slot, nullptr, 0);
    const double rss_warm = currentRssMb();

    Tracer tracer(opt.trace ? size_t{1} << 19 : 0);
    const int64_t cbr0 = in->sw->cbrForwarded();
    const int64_t vbr0 = st.vbr_accepted;
    const double buffered0 = st.buffered_sum;
    Measured m;
    if (opt.trace) {
        in->tracing->attach(&tracer);
        m = measure<true>(spec, *in, st, opt, &tracer, report);
        in->tracing->attach(nullptr);
    } else {
        m = measure<false>(spec, *in, st, opt, nullptr, report);
    }
    report.check(m.horizon_reached,
                 "the simulated horizon was reached in the time limit");
    checkConservation(*in, st, report, "at the end");
    const double cbr_fwd = static_cast<double>(in->sw->cbrForwarded() - cbr0);
    const auto booked_per_frame = static_cast<double>(in->booked_per_frame);
    const int64_t pairs = opt.trace ? in->tracing->pairs() : 0;
    const int64_t fill_bound = opt.trace ? in->tracing->fillBound() : 0;

    // A second burst of set-ups, after the timed instance is gone (so peak
    // memory stays one switch's): a slow phase of the host now rarely
    // covers both bursts.
    in.reset();
    timeSetups(spec, opt, setup_s);

    if (m.slot_rates.empty()) {  // interval longer than the whole run
        const double secs = static_cast<double>(m.elapsed_ns) * 1e-9;
        m.slot_rates.push_back(static_cast<double>(m.slots) / secs);
        m.cell_rates.push_back(0.0);
    }
    const double slots = static_cast<double>(m.slots);
    Report::add(report.end_to_end, "sim_slots_per_s",
                quantile(m.slot_rates, kSteadyQuantile), "slots/s");
    Report::add(report.end_to_end, "cells_per_s",
                quantile(m.cell_rates, kSteadyQuantile), "cells/s");
    Report::add(report.end_to_end, "setup_s",
                quantile(setup_s, 1 - kSteadyQuantile), "s");
    Report::add(report.end_to_end, "peak_rss_mb", peakRssMb(), "MiB");
    for (const Metric& s : report.simulated)
        if (s.name.rfind("sim_", 0) == 0)
            report.end_to_end.push_back(s);

    Report::add(report.info, "warmup_slots", static_cast<double>(spec.warmup),
                "slots");
    Report::add(report.info, "horizon_slots",
                static_cast<double>(spec.horizon), "slots");
    Report::add(report.info, "measured_slots", slots, "slots");
    Report::add(report.info, "measured_s",
                static_cast<double>(m.elapsed_ns) * 1e-9, "s");
    Report::add(report.info, "intervals",
                static_cast<double>(m.slot_rates.size()), "count");
    Report::add(report.info, "setup_reps",
                static_cast<double>(setup_s.size()), "count");

    if (!opt.trace)
        return true;

    auto ns_per_slot = [&](SpanKind kind, bool self) {
        const SpanTotals& tot = tracer.totals(kind);
        return static_cast<double>(self ? tot.self_ns : tot.total_ns) / slots;
    };
    const double vbr_cells = static_cast<double>(st.vbr_accepted - vbr0);
    const double booked = booked_per_frame * slots / kFrameSlots;
    const SpanTotals& root = tracer.totals(SpanKind::Measure);
    const double covered = static_cast<double>(
        root.total_ns - root.self_ns -
        tracer.totals(SpanKind::FillCount).total_ns);

    auto& pl = report.per_layer;
    Report::add(pl, "queueing.accept_ns_per_cell",
                static_cast<double>(tracer.totals(SpanKind::Accept).self_ns) /
                    std::max(vbr_cells, 1.0),
                "ns");
    Report::add(pl, "queueing.buffered_cells_mean",
                (st.buffered_sum - buffered0) / slots, "cells");
    Report::add(pl, "sim.slot_self_ns_per_slot",
                ns_per_slot(SpanKind::Slot, true), "ns");
    Report::add(pl, "sim.traffic_ns_per_slot",
                ns_per_slot(SpanKind::Traffic, true), "ns");
    Report::add(pl, "sim.metrics_ns_per_slot",
                ns_per_slot(SpanKind::Metrics, true), "ns");
    Report::add(pl, "matching.match_ns_per_slot",
                ns_per_slot(SpanKind::Match, false), "ns");
    Report::add(pl, "matching.pairs_per_slot",
                static_cast<double>(pairs) / slots, "pairs");
    Report::add(pl, "matching.fill_ratio",
                static_cast<double>(pairs) /
                    static_cast<double>(std::max<int64_t>(fill_bound, 1)),
                "ratio");
    Report::add(pl, "cbr.accept_ns_per_slot",
                ns_per_slot(SpanKind::CbrAccept, false), "ns");
    Report::add(pl, "cbr.cells_per_slot", cbr_fwd / slots, "cells");
    Report::add(pl, "cbr.reservation_use_ratio",
                booked > 0 ? cbr_fwd / booked : 0.0, "ratio");
    Report::add(pl, "mem.rss_after_setup_mb", rss_setup, "MiB");
    Report::add(pl, "mem.rss_growth_mb", rss_warm - rss_setup, "MiB");
    Report::add(pl, "trace.coverage_ratio",
                covered / static_cast<double>(root.total_ns), "ratio");

    Report::add(report.info, "spans_recorded",
                static_cast<double>(tracer.recorded()), "count");
    Report::add(report.info, "spans_kept",
                static_cast<double>(tracer.kept()), "count");
    if (!opt.spans_path.empty())
        report.check(tracer.write(opt.spans_path),
                     "spans written to " + opt.spans_path);
    return true;
}

}  // namespace an2bench
