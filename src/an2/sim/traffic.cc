#include "an2/sim/traffic.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace an2 {

TrafficGenerator::TrafficGenerator(int n_inputs, int n_outputs)
    : n_inputs_(n_inputs), n_outputs_(n_outputs),
      conn_(n_inputs, n_outputs, ConnState{})
{
    AN2_REQUIRE(n_inputs > 0 && n_outputs > 0,
                "traffic generator needs positive dimensions");
}

Cell
TrafficGenerator::makeCell(PortId i, PortId j, SlotTime slot)
{
    return makeCell(i, j, slot, TrafficClass::VBR);
}

Cell
TrafficGenerator::makeCell(PortId i, PortId j, SlotTime slot,
                           TrafficClass cls)
{
    ConnState& cs = conn_.at(i, j);
    if (cs.flow == kNoFlow)
        cs.flow = next_flow_++;
    Cell c;
    c.flow = cs.flow;
    c.input = i;
    c.output = j;
    c.cls = cls;
    c.seq = cs.seq++;
    c.inject_slot = slot;
    c.arrival_slot = slot;
    ++cells_injected_;
    return c;
}

// ---------------------------------------------------------------- uniform

UniformTraffic::UniformTraffic(int n, double load, uint64_t seed)
    : TrafficGenerator(n, n), load_(load), rng_(seed)
{
    AN2_REQUIRE(load >= 0.0 && load <= 1.0, "load must be in [0,1]");
}

std::string
UniformTraffic::name() const
{
    std::ostringstream oss;
    oss << "uniform(load=" << load_ << ")";
    return oss.str();
}

void
UniformTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    for (PortId i = 0; i < n_inputs_; ++i) {
        if (!rng_.nextBernoulli(load_))
            continue;
        auto j = static_cast<PortId>(
            rng_.nextBelow(static_cast<uint64_t>(n_outputs_)));
        out.push_back(makeCell(i, j, slot));
    }
}

// ------------------------------------------------------ multi-class uniform

MultiClassUniformTraffic::MultiClassUniformTraffic(int n, double load,
                                                   uint64_t seed,
                                                   double cbr_fraction,
                                                   double be_fraction)
    : TrafficGenerator(n, n), load_(load), cbr_fraction_(cbr_fraction),
      be_fraction_(be_fraction), rng_(seed)
{
    AN2_REQUIRE(load >= 0.0 && load <= 1.0, "load must be in [0,1]");
    AN2_REQUIRE(cbr_fraction >= 0.0 && be_fraction >= 0.0 &&
                    cbr_fraction + be_fraction <= 1.0,
                "class fractions must be non-negative and sum to <= 1");
}

std::string
MultiClassUniformTraffic::name() const
{
    std::ostringstream oss;
    oss << "uniform3(load=" << load_ << ",cbr=" << cbr_fraction_
        << ",be=" << be_fraction_ << ")";
    return oss.str();
}

TrafficClass
MultiClassUniformTraffic::classOf(PortId i, PortId j) const
{
    uint64_t state =
        (static_cast<uint64_t>(static_cast<uint32_t>(i)) << 32) |
        static_cast<uint32_t>(j);
    uint64_t h = splitmix64(state);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < cbr_fraction_)
        return TrafficClass::CBR;
    if (u < cbr_fraction_ + be_fraction_)
        return TrafficClass::BE;
    return TrafficClass::VBR;
}

void
MultiClassUniformTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    for (PortId i = 0; i < n_inputs_; ++i) {
        if (!rng_.nextBernoulli(load_))
            continue;
        auto j = static_cast<PortId>(
            rng_.nextBelow(static_cast<uint64_t>(n_outputs_)));
        out.push_back(makeCell(i, j, slot, classOf(i, j)));
    }
}

// ----------------------------------------------------------- client-server

ClientServerTraffic::ClientServerTraffic(int n, int num_servers,
                                         double server_load, uint64_t seed,
                                         double client_client_ratio)
    : TrafficGenerator(n, n), num_servers_(num_servers),
      server_load_(server_load), arrival_rate_(0.0), rng_(seed)
{
    AN2_REQUIRE(num_servers > 0 && num_servers < n,
                "need at least one server and one client");
    AN2_REQUIRE(server_load >= 0.0 && server_load <= 1.0,
                "server load must be in [0,1]");
    AN2_REQUIRE(client_client_ratio > 0.0 && client_client_ratio <= 1.0,
                "client-client ratio must be in (0,1]");

    // Destination weights: connections touching a server have weight 1;
    // client-client connections have weight `ratio`; no self-traffic.
    auto weight = [&](PortId i, PortId j) {
        if (i == j)
            return 0.0;
        bool srv = i < num_servers_ || j < num_servers_;
        return srv ? 1.0 : client_client_ratio;
    };

    dest_cdf_.resize(static_cast<size_t>(n));
    std::vector<double> row_total(static_cast<size_t>(n), 0.0);
    for (PortId i = 0; i < n; ++i) {
        auto& cdf = dest_cdf_[static_cast<size_t>(i)];
        cdf.resize(static_cast<size_t>(n));
        double acc = 0.0;
        for (PortId j = 0; j < n; ++j) {
            acc += weight(i, j);
            cdf[static_cast<size_t>(j)] = acc;
        }
        row_total[static_cast<size_t>(i)] = acc;
        for (auto& v : cdf)
            v /= acc;
    }

    // Calibrate the per-input arrival rate so a server output link sees
    // `server_load`: load(server j) = rate * sum_i weight(i,j)/W_i.
    double coeff = 0.0;
    PortId probe_server = 0;
    for (PortId i = 0; i < n; ++i)
        coeff += weight(i, probe_server) / row_total[static_cast<size_t>(i)];
    AN2_ASSERT(coeff > 0.0, "degenerate client-server weights");
    arrival_rate_ = server_load / coeff;
    AN2_REQUIRE(arrival_rate_ <= 1.0,
                "server load " << server_load
                               << " requires per-input arrival rate "
                               << arrival_rate_ << " > 1; infeasible");
}

std::string
ClientServerTraffic::name() const
{
    std::ostringstream oss;
    oss << "client-server(servers=" << num_servers_
        << ",server_load=" << server_load_ << ")";
    return oss.str();
}

void
ClientServerTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    for (PortId i = 0; i < n_inputs_; ++i) {
        if (!rng_.nextBernoulli(arrival_rate_))
            continue;
        const auto& cdf = dest_cdf_[static_cast<size_t>(i)];
        double u = rng_.nextDouble();
        auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        auto j = static_cast<PortId>(std::min<size_t>(
            static_cast<size_t>(it - cdf.begin()), cdf.size() - 1));
        out.push_back(makeCell(i, j, slot));
    }
}

// ----------------------------------------------------------------- periodic

PeriodicBurstTraffic::PeriodicBurstTraffic(int n, double load, uint64_t seed,
                                           int burst)
    : TrafficGenerator(n, n), load_(load),
      burst_(burst == 0 ? n * n : burst), rng_(seed)
{
    AN2_REQUIRE(load >= 0.0 && load <= 1.0, "load must be in [0,1]");
    AN2_REQUIRE(burst >= 0, "burst must be non-negative");
}

std::string
PeriodicBurstTraffic::name() const
{
    std::ostringstream oss;
    oss << "periodic(load=" << load_ << ",burst=" << burst_ << ")";
    return oss.str();
}

void
PeriodicBurstTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    // Every input targets the same rotating output, in bursts: the
    // stationary blocking pattern of Figure 1.
    auto j = static_cast<PortId>((slot / burst_) % n_outputs_);
    for (PortId i = 0; i < n_inputs_; ++i) {
        if (!rng_.nextBernoulli(load_))
            continue;
        out.push_back(makeCell(i, j, slot));
    }
}

// ------------------------------------------------------------------ hotspot

HotspotTraffic::HotspotTraffic(int n, double load, PortId hotspot,
                               double hotspot_fraction, uint64_t seed)
    : TrafficGenerator(n, n), load_(load), hotspot_(hotspot),
      hotspot_fraction_(hotspot_fraction), rng_(seed)
{
    AN2_REQUIRE(load >= 0.0 && load <= 1.0, "load must be in [0,1]");
    AN2_REQUIRE(hotspot >= 0 && hotspot < n, "hotspot out of range");
    AN2_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0,
                "hotspot fraction must be in [0,1]");
}

std::string
HotspotTraffic::name() const
{
    std::ostringstream oss;
    oss << "hotspot(load=" << load_ << ",frac=" << hotspot_fraction_ << ")";
    return oss.str();
}

void
HotspotTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    for (PortId i = 0; i < n_inputs_; ++i) {
        if (!rng_.nextBernoulli(load_))
            continue;
        PortId j = rng_.nextBernoulli(hotspot_fraction_)
                       ? hotspot_
                       : static_cast<PortId>(rng_.nextBelow(
                             static_cast<uint64_t>(n_outputs_)));
        out.push_back(makeCell(i, j, slot));
    }
}

// -------------------------------------------------------------- trace replay

TraceTraffic::TraceTraffic(int n, std::vector<Record> records)
    : TrafficGenerator(n, n), records_(std::move(records))
{
    std::sort(records_.begin(), records_.end(),
              [](const Record& a, const Record& b) {
                  if (a.slot != b.slot)
                      return a.slot < b.slot;
                  return a.input < b.input;
              });
    for (size_t k = 0; k < records_.size(); ++k) {
        const Record& r = records_[k];
        AN2_REQUIRE(r.slot >= 0, "trace slot must be non-negative");
        AN2_REQUIRE(r.input >= 0 && r.input < n,
                    "trace input " << r.input << " out of range");
        AN2_REQUIRE(r.output >= 0 && r.output < n,
                    "trace output " << r.output << " out of range");
        if (k > 0 && records_[k - 1].slot == r.slot)
            AN2_REQUIRE(records_[k - 1].input != r.input,
                        "two trace cells at input " << r.input << " in slot "
                                                    << r.slot);
    }
}

TraceTraffic
TraceTraffic::fromCsv(int n, std::istream& in)
{
    std::vector<Record> records;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        Record r{};
        long long slot = 0;
        int input = 0;
        int output = 0;
        if (std::sscanf(line.c_str(), "%lld,%d,%d", &slot, &input,
                        &output) != 3) {
            AN2_FATAL("trace line " << line_no << " is not 'slot,input,"
                                    << "output': " << line);
        }
        r.slot = slot;
        r.input = input;
        r.output = output;
        records.push_back(r);
    }
    return TraceTraffic(n, std::move(records));
}

std::string
TraceTraffic::name() const
{
    std::ostringstream oss;
    oss << "trace(" << records_.size() << " records)";
    return oss.str();
}

void
TraceTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    AN2_REQUIRE(slot > last_slot_,
                "trace generator must be driven with increasing slots");
    last_slot_ = slot;
    while (cursor_ < records_.size() && records_[cursor_].slot < slot)
        ++cursor_;  // records for skipped slots are not replayed
    while (cursor_ < records_.size() && records_[cursor_].slot == slot) {
        const Record& r = records_[cursor_++];
        out.push_back(makeCell(r.input, r.output, slot));
    }
}

// ------------------------------------------------------------------- bursty

BurstyTraffic::BurstyTraffic(int n, double load, double mean_burst,
                             uint64_t seed)
    : TrafficGenerator(n, n), state_(static_cast<size_t>(n)), rng_(seed),
      load_(load), mean_burst_(mean_burst)
{
    AN2_REQUIRE(load >= 0.0 && load < 1.0, "bursty load must be in [0,1)");
    AN2_REQUIRE(mean_burst >= 1.0, "mean burst length must be >= 1");
    p_on_to_off_ = 1.0 / mean_burst;
    // Stationary P(on) = p_off_on / (p_off_on + p_on_off) = load.
    p_off_to_on_ = load * p_on_to_off_ / (1.0 - load);
    p_off_to_on_ = std::min(p_off_to_on_, 1.0);
}

std::string
BurstyTraffic::name() const
{
    std::ostringstream oss;
    oss << "bursty(load=" << load_ << ",mean_burst=" << mean_burst_ << ")";
    return oss.str();
}

void
BurstyTraffic::generate(SlotTime slot, std::vector<Cell>& out)
{
    for (PortId i = 0; i < n_inputs_; ++i) {
        State& st = state_[static_cast<size_t>(i)];
        if (st.on) {
            if (rng_.nextBernoulli(p_on_to_off_))
                st.on = false;
        } else if (rng_.nextBernoulli(p_off_to_on_)) {
            st.on = true;
            st.dest = static_cast<PortId>(
                rng_.nextBelow(static_cast<uint64_t>(n_outputs_)));
        }
        if (st.on)
            out.push_back(makeCell(i, st.dest, slot));
    }
}

}  // namespace an2
