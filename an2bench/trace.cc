#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace an2bench {

namespace {

constexpr const char* kNames[] = {
    "bench.measure",      "sim.traffic", "queueing.accept",
    "cbr.accept",         "sim.slot",    "matching.match",
    "trace.fill_count",   "sim.metrics", "topo.build",
    "topo.lan_construct", "topo.place",  "network.frame",
    "topo.stats",
};
static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
              static_cast<size_t>(SpanKind::kCount));

const char*
spanName(SpanKind kind)
{
    return kNames[static_cast<size_t>(kind)];
}

}  // namespace

Tracer::Tracer(size_t capacity) : capacity_(capacity)
{
    spans_.reserve(capacity_);
    stack_.reserve(8);
}

int32_t
Tracer::keep(SpanKind kind, int64_t start_ns, int64_t end_ns)
{
    ++recorded_;
    if (spans_.size() >= capacity_)
        return -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back().kept_id;
    spans_.push_back({kind, parent, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
}

void
Tracer::account(SpanKind kind, int64_t dur_ns, int64_t self_ns)
{
    SpanTotals& t = totals_[static_cast<size_t>(kind)];
    ++t.count;
    t.total_ns += dur_ns;
    t.self_ns += self_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur_ns;
}

void
Tracer::open(SpanKind kind, int64_t start_ns)
{
    const int32_t id = keep(kind, start_ns, start_ns);
    stack_.push_back({kind, id, start_ns});
}

void
Tracer::close(SpanKind kind, int64_t end_ns)
{
    if (stack_.empty() || stack_.back().kind != kind)
        throw std::logic_error(std::string("unbalanced span close: ") +
                               spanName(kind));
    const Open o = stack_.back();
    stack_.pop_back();
    if (o.kept_id >= 0)
        spans_[static_cast<size_t>(o.kept_id)].end_ns = end_ns;
    const int64_t dur = end_ns - o.start_ns;
    account(kind, dur, dur - o.child_ns);
}

void
Tracer::leaf(SpanKind kind, int64_t start_ns, int64_t end_ns)
{
    keep(kind, start_ns, end_ns);
    account(kind, end_ns - start_ns, end_ns - start_ns);
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu\t%d\t%s\t%lld\t%lld\n", i, s.parent,
                     spanName(s.kind), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

}  // namespace an2bench
