/**
 * @file
 * an2.trace.v1 — export a Recorder's binary event ring as Chrome
 * trace_event JSON, loadable in chrome://tracing and Perfetto.
 *
 * Document layout (object format; extra top-level keys are ignored by
 * the viewers):
 *
 *   {
 *     "schema": "an2.trace.v1",
 *     "displayTimeUnit": "ms",
 *     "otherData": { "slot_ticks": 1000, "dropped_events": D,
 *                    "counters": {...}, "gauges": {...} },
 *     "traceEvents": [ ... ]
 *   }
 *
 * Time base: one cell slot spans 1000 ticks (microseconds in the
 * viewer), so ts = slot * 1000 plus a small deterministic offset that
 * orders events within the slot. Track layout (all pid 0):
 *
 *   tid 0  "slot"      B/E pair per runSlot (args on E: forwarded, cbr,
 *                      match_size), "cbr_mask" instants, and a
 *                      "match_size" counter series ("C" events).
 *   tid 1  matcher     one "pim.iter" / "islip.iter" / "greedy.pass"
 *                      instant per iteration with args {iter, requests,
 *                      grants, accepts, matched, kept}.
 *   tid 2  queues      "enqueue"/"dequeue" instants with args
 *                      {input, output, flow, seq}.
 *
 * The export is fully deterministic: two identically-seeded runs produce
 * byte-identical documents (pinned by the golden-trace test), which is
 * also what lets the conformance suite diff the Reference and
 * word-parallel backends at the trace level.
 */
#ifndef AN2_OBS_TRACE_EXPORT_H
#define AN2_OBS_TRACE_EXPORT_H

#include <string>

#include "an2/obs/recorder.h"

namespace an2::obs {

/** Ticks per cell slot in exported timestamps. */
inline constexpr int64_t kSlotTicks = 1000;

/** Render the recorder's retained events as an an2.trace.v1 document. */
std::string toChromeTraceJson(const Recorder& recorder);

}  // namespace an2::obs

#endif  // AN2_OBS_TRACE_EXPORT_H
