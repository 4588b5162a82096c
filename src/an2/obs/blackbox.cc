#include "an2/obs/blackbox.h"

#include <algorithm>
#include <cstdio>

#include "an2/harness/json_writer.h"
#include "an2/obs/recorder.h"
#include "an2/sim/iq_switch.h"

namespace an2::obs {

using harness::JsonStyle;
using harness::JsonWriter;

namespace {

const char*
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::SlotBegin: return "slot_begin";
      case EventType::SlotEnd:   return "slot_end";
      case EventType::MatchIter: return "match_iter";
      case EventType::CbrMask:   return "cbr_mask";
      case EventType::Enqueue:   return "enqueue";
      case EventType::Dequeue:   return "dequeue";
      case EventType::Fault:     return "fault";
    }
    return "unknown";
}

void
writeLatency(JsonWriter& w, const char* key, const LogHistogram& h)
{
    w.key(key).beginObject();
    w.key("count").value(h.count());
    w.key("p50").value(h.quantile(0.50));
    w.key("p99").value(h.quantile(0.99));
    w.key("p999").value(h.quantile(0.999));
    w.key("max").value(h.max());
    w.endObject();
}

}  // namespace

Blackbox::Blackbox(Recorder& recorder, const InputQueuedSwitch* sw,
                   BlackboxConfig config)
    : rec_(recorder), sw_(sw), cfg_(std::move(config))
{
    if (sw_ != nullptr) {
        const size_t n = static_cast<size_t>(sw_->size());
        voq_.assign(n * n, 0);
        backlog_.assign(n, 0);
    }
    rebaseline();
    if (cfg_.arm_panic_hook) {
        prev_hook_ = setPanicHook(&Blackbox::panicTrampoline, this,
                                  &prev_ctx_);
        hook_armed_ = true;
    }
}

Blackbox::~Blackbox()
{
    if (hook_armed_)
        setPanicHook(prev_hook_, prev_ctx_);
}

void
Blackbox::rebaseline()
{
    for (size_t c = 0; c < kNumCounters; ++c)
        baseline_[c] = rec_.counter(static_cast<Counter>(c));
}

void
Blackbox::panicTrampoline(void* ctx, const std::string& msg)
{
    auto* self = static_cast<Blackbox*>(ctx);
    self->dump(msg, self->rec_.currentSlot());
}

void
Blackbox::onPortDown(bool is_input, PortId port, SlotTime slot)
{
    if (!cfg_.dump_on_fault)
        return;
    char reason[48];
    std::snprintf(reason, sizeof reason, "fault: %s port %d down",
                  is_input ? "input" : "output", port);
    dump(reason, slot);
}

void
Blackbox::onLinkDown(int link, SlotTime slot)
{
    if (!cfg_.dump_on_fault)
        return;
    char reason[48];
    std::snprintf(reason, sizeof reason, "fault: link %d down", link);
    dump(reason, slot);
}

const std::string&
Blackbox::dump(const std::string& reason, SlotTime slot)
{
    ++dumps_;
    rec_.add(Counter::BlackboxDumps, 1);

    JsonWriter w(JsonStyle::Pretty);
    w.beginObject();
    w.key("schema").value("an2.blackbox.v1");
    w.key("reason").value(reason);
    w.key("slot").value(static_cast<int64_t>(slot));
    w.key("dump_index").value(dumps_);

    w.key("counters").beginObject();
    for (size_t c = 0; c < kNumCounters; ++c)
        w.key(counterName(static_cast<Counter>(c)))
            .value(rec_.counter(static_cast<Counter>(c)));
    w.endObject();
    // Deltas since the baseline, nonzero only: "what changed since
    // things were last known-good" is the first post-mortem question.
    w.key("counter_deltas").beginObject();
    for (size_t c = 0; c < kNumCounters; ++c) {
        int64_t delta =
            rec_.counter(static_cast<Counter>(c)) - baseline_[c];
        if (delta != 0)
            w.key(counterName(static_cast<Counter>(c))).value(delta);
    }
    w.endObject();
    w.key("gauges").beginObject();
    for (size_t g = 0; g < kNumGauges; ++g)
        w.key(gaugeName(static_cast<Gauge>(g)))
            .value(rec_.gauge(static_cast<Gauge>(g)));
    w.endObject();

    if (sw_ != nullptr) {
        const int n = sw_->size();
        w.key("ports").value(n);
        w.key("live_inputs").beginArray();
        for (PortId i = 0; i < n; ++i)
            w.value(sw_->inputPortLive(i) ? 1 : 0);
        w.endArray();
        w.key("live_outputs").beginArray();
        for (PortId j = 0; j < n; ++j)
            w.value(sw_->outputPortLive(j) ? 1 : 0);
        w.endArray();
        sw_->fillOccupancy(voq_.data(), backlog_.data());
        w.key("voq").beginArray();
        for (PortId i = 0; i < n; ++i) {
            w.beginArray();
            for (PortId j = 0; j < n; ++j)
                w.value(voq_[static_cast<size_t>(i) *
                                 static_cast<size_t>(n) +
                             static_cast<size_t>(j)]);
            w.endArray();
        }
        w.endArray();
        w.key("output_backlog").beginArray();
        for (PortId j = 0; j < n; ++j)
            w.value(backlog_[static_cast<size_t>(j)]);
        w.endArray();
        w.key("buffered_cells").value(sw_->bufferedCells());
        w.key("dropped_cells").value(sw_->droppedCells());
    }

    if (rec_.latencyEnabled()) {
        w.key("latency").beginObject();
        writeLatency(w, "cbr", rec_.latencyHistogram(TrafficClass::CBR));
        writeLatency(w, "vbr", rec_.latencyHistogram(TrafficClass::VBR));
        writeLatency(w, "be", rec_.latencyHistogram(TrafficClass::BE));
        w.endObject();
    }

    // The tail of the event ring, oldest-first; the ring's own
    // drop-oldest policy already kept the most recent window.
    size_t count = std::min(rec_.eventCount(), cfg_.max_events);
    size_t first = rec_.eventCount() - count;
    w.key("dropped_events").value(rec_.droppedEvents());
    w.key("events_omitted")
        .value(static_cast<int64_t>(first));
    w.key("events").beginArray();
    for (size_t k = first; k < rec_.eventCount(); ++k) {
        const Event& e = rec_.event(k);
        w.beginObject();
        w.key("slot").value(static_cast<int64_t>(e.slot));
        w.key("type").value(eventTypeName(e.type));
        w.key("a").value(e.a);
        w.key("b").value(e.b);
        w.key("c").value(e.c);
        w.key("d").value(e.d);
        if (e.type == EventType::MatchIter) {
            w.key("alg").value(static_cast<int>(e.alg));
            w.key("iter").value(static_cast<int>(e.iter));
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    last_dump_ = w.str();

    if (!cfg_.path.empty()) {
        // Best-effort: a failed write must not mask the original panic.
        if (std::FILE* f = std::fopen(cfg_.path.c_str(), "w")) {
            std::fwrite(last_dump_.data(), 1, last_dump_.size(), f);
            std::fclose(f);
        }
    }
    return last_dump_;
}

}  // namespace an2::obs
