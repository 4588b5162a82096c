/**
 * @file
 * Outside-in span tracing for the an2bench workloads.
 *
 * Spans are recorded from the benchmark's own files around calls into the
 * library's public functions; nothing inside the library is instrumented.
 * Each span has a kind (which fixes its name, prefixed by its layer: one
 * of the repository's modules, or "bench" and "trace" for the benchmark's
 * own loop and bookkeeping), a start, an end, and the span that encloses
 * it. A span's self time is its duration minus the time its direct
 * children cover; a layer's self time is the sum over its spans.
 *
 * Spans are kept in memory up to a fixed capacity and written out when the
 * run ends; the per-kind totals that the per-layer metrics are computed
 * from include every span, kept or not. Timestamps come from the caller so
 * that one clock read can end one span and start the next.
 */
#ifndef AN2BENCH_TRACE_H
#define AN2BENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace an2bench {

/** Monotonic host time in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Every span the benchmark records (layer in parentheses). */
enum class SpanKind {
    Measure,       ///< the whole measured interval (Bench)
    Traffic,       ///< TrafficGenerator::generate (Sim)
    Accept,        ///< one slot's VBR SwitchModel::acceptCell calls (Queueing)
    CbrAccept,     ///< one frame's CBR acceptCell calls (Cbr)
    Slot,          ///< SwitchModel::runSlot (Sim)
    Match,         ///< Matcher::matchInto inside runSlot (Matching)
    FillCount,     ///< the tracer's fill-ratio bookkeeping (Trace)
    Metrics,       ///< MetricsCollector::note* and bufferedCells (Sim)
    TopoBuild,     ///< Topology::fatTree (Topo)
    LanConstruct,  ///< the Lan constructor (Topo)
    Place,         ///< Lan::placeMatrix (Topo)
    Frame,         ///< Lan::run to the next frame boundary (Network)
    Stats,         ///< Lan::stats (Topo)
    kCount,
};

/** Duration totals of one span kind over a whole run. */
struct SpanTotals
{
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
};

/** In-memory span recorder (single-threaded). */
class Tracer
{
  public:
    /** @param capacity Spans kept for write-out; later ones count only. */
    explicit Tracer(size_t capacity);

    /** Open a span at `start_ns` nested in the innermost open span. */
    void open(SpanKind kind, int64_t start_ns);

    /** Close the innermost open span, which must be of `kind`. */
    void close(SpanKind kind, int64_t end_ns);

    /** Record a closed span with no children. */
    void leaf(SpanKind kind, int64_t start_ns, int64_t end_ns);

    const SpanTotals& totals(SpanKind kind) const
    {
        return totals_[static_cast<size_t>(kind)];
    }

    /** Spans recorded, and spans kept for write-out. */
    int64_t recorded() const { return recorded_; }
    size_t kept() const { return spans_.size(); }

    /**
     * Write the kept spans as tab-separated lines
     * `id parent name start_ns end_ns` (parent -1 = root).
     * @return false when the file cannot be written.
     */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        SpanKind kind;
        int32_t parent;
        int64_t start_ns;
        int64_t end_ns;
    };

    struct Open
    {
        SpanKind kind;
        int32_t kept_id;  ///< index into spans_, or -1 when not kept
        int64_t start_ns;
        int64_t child_ns = 0;
    };

    int32_t keep(SpanKind kind, int64_t start_ns, int64_t end_ns);
    void account(SpanKind kind, int64_t dur_ns, int64_t self_ns);

    size_t capacity_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    SpanTotals totals_[static_cast<size_t>(SpanKind::kCount)];
    int64_t recorded_ = 0;
};

}  // namespace an2bench

#endif  // AN2BENCH_TRACE_H
