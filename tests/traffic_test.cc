// Tests for the workload generators (an2/sim/traffic.h).
#include "an2/sim/traffic.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>

namespace an2 {
namespace {

/** Run a generator for `slots` slots and return all cells. */
std::vector<Cell>
collect(TrafficGenerator& gen, SlotTime slots)
{
    std::vector<Cell> all;
    for (SlotTime s = 0; s < slots; ++s)
        gen.generate(s, all);
    return all;
}

TEST(UniformTrafficTest, LoadMatchesTarget)
{
    UniformTraffic gen(16, 0.6, 1);
    auto cells = collect(gen, 5000);
    double rate = static_cast<double>(cells.size()) / (5000.0 * 16);
    EXPECT_NEAR(rate, 0.6, 0.01);
}

TEST(UniformTrafficTest, DestinationsUniform)
{
    UniformTraffic gen(8, 1.0, 2);
    auto cells = collect(gen, 4000);
    std::vector<int> per_dest(8, 0);
    for (const Cell& c : cells)
        ++per_dest[static_cast<size_t>(c.output)];
    for (int d : per_dest)
        EXPECT_NEAR(d / static_cast<double>(cells.size()), 0.125, 0.01);
}

TEST(UniformTrafficTest, AtMostOneCellPerInputPerSlot)
{
    UniformTraffic gen(4, 1.0, 3);
    std::vector<Cell> slot_cells;
    for (SlotTime s = 0; s < 100; ++s) {
        slot_cells.clear();
        gen.generate(s, slot_cells);
        EXPECT_EQ(slot_cells.size(), 4u);  // load 1: exactly one each
        std::vector<bool> seen(4, false);
        for (const Cell& c : slot_cells) {
            EXPECT_FALSE(seen[static_cast<size_t>(c.input)]);
            seen[static_cast<size_t>(c.input)] = true;
            EXPECT_EQ(c.inject_slot, s);
        }
    }
}

TEST(UniformTrafficTest, PerFlowSequenceNumbersIncrement)
{
    UniformTraffic gen(4, 1.0, 4);
    auto cells = collect(gen, 2000);
    std::map<FlowId, int64_t> next;
    for (const Cell& c : cells) {
        auto [it, inserted] = next.try_emplace(c.flow, 0);
        EXPECT_EQ(c.seq, it->second) << "flow " << c.flow;
        ++it->second;
    }
}

TEST(UniformTrafficTest, FlowsMatchConnections)
{
    // One flow id per (input, output) connection, numbered 0, 1, 2, ...
    // in the order of each connection's first cell.
    UniformTraffic gen(4, 1.0, 5);
    auto cells = collect(gen, 500);
    using Connection = std::pair<PortId, PortId>;
    std::map<FlowId, Connection> connection_of;
    std::map<Connection, FlowId> flow_of;
    FlowId next_new = 0;
    for (const Cell& c : cells) {
        EXPECT_EQ(c.cls, TrafficClass::VBR);
        const Connection conn{c.input, c.output};
        auto [flow, new_connection] = flow_of.try_emplace(conn, c.flow);
        EXPECT_EQ(flow->second, c.flow)
            << "connection " << c.input << "->" << c.output
            << " carries two flow ids";
        auto owner = connection_of.try_emplace(c.flow, conn).first;
        EXPECT_EQ(owner->second, conn)
            << "flow " << c.flow << " spans two connections";
        if (new_connection) {
            EXPECT_EQ(c.flow, next_new) << "ids out of first-use order";
            ++next_new;
        }
    }
    // Every one of the 4x4 connections carried traffic.
    EXPECT_EQ(next_new, 16);
}

TEST(UniformTrafficTest, ZeroLoadGeneratesNothing)
{
    UniformTraffic gen(4, 0.0, 6);
    EXPECT_TRUE(collect(gen, 100).empty());
    EXPECT_EQ(gen.cellsInjected(), 0);
}

TEST(UniformTrafficTest, InvalidLoadRejected)
{
    EXPECT_THROW(UniformTraffic(4, 1.5, 1), UsageError);
    EXPECT_THROW(UniformTraffic(4, -0.1, 1), UsageError);
}

TEST(ClientServerTrafficTest, ServerLinkLoadCalibrated)
{
    constexpr int kN = 16;
    constexpr int kServers = 4;
    ClientServerTraffic gen(kN, kServers, 0.8, 7);
    auto cells = collect(gen, 20000);
    std::vector<int64_t> per_out(kN, 0);
    for (const Cell& c : cells)
        ++per_out[static_cast<size_t>(c.output)];
    for (int j = 0; j < kServers; ++j) {
        double load = per_out[static_cast<size_t>(j)] / 20000.0;
        EXPECT_NEAR(load, 0.8, 0.03) << "server " << j;
    }
    // Clients see far less traffic than servers.
    for (int j = kServers; j < kN; ++j) {
        double load = per_out[static_cast<size_t>(j)] / 20000.0;
        EXPECT_LT(load, 0.5) << "client " << j;
    }
}

TEST(ClientServerTrafficTest, ClientClientTrafficSuppressed)
{
    constexpr int kN = 16;
    constexpr int kServers = 4;
    ClientServerTraffic gen(kN, kServers, 0.9, 8, 0.05);
    auto cells = collect(gen, 30000);
    int64_t client_client = 0;
    int64_t client_server = 0;
    for (const Cell& c : cells) {
        if (c.input >= kServers) {
            if (c.output >= kServers)
                ++client_client;
            else
                ++client_server;
        }
    }
    // Weights: each client splits traffic 4*1 : 11*0.05 between servers
    // and other clients, so client-client is ~12% of client traffic.
    double frac = static_cast<double>(client_client) /
                  static_cast<double>(client_client + client_server);
    EXPECT_NEAR(frac, 0.55 / 4.55, 0.02);
}

TEST(ClientServerTrafficTest, NoSelfTraffic)
{
    ClientServerTraffic gen(8, 2, 0.5, 9);
    for (const Cell& c : collect(gen, 5000))
        EXPECT_NE(c.input, c.output);
}

TEST(ClientServerTrafficTest, UniformRatioFullLoadIsBoundary)
{
    // With ratio 1.0 the workload degenerates to uniform(no-self) and a
    // server load of 1.0 calibrates to per-input rate exactly 1.0.
    ClientServerTraffic gen(4, 2, 1.0, 1, 1.0);
    EXPECT_NEAR(gen.arrivalRate(), 1.0, 1e-9);
}

TEST(ClientServerTrafficTest, InvalidConfigRejected)
{
    EXPECT_THROW(ClientServerTraffic(8, 0, 0.5, 1), UsageError);
    EXPECT_THROW(ClientServerTraffic(8, 8, 0.5, 1), UsageError);
}

TEST(PeriodicBurstTrafficTest, AllInputsTargetRotatingOutput)
{
    PeriodicBurstTraffic gen(4, 1.0, 10, /*burst=*/1);
    std::vector<Cell> cells;
    for (SlotTime s = 0; s < 40; ++s) {
        cells.clear();
        gen.generate(s, cells);
        EXPECT_EQ(cells.size(), 4u);
        for (const Cell& c : cells)
            EXPECT_EQ(c.output, static_cast<PortId>(s % 4));
    }
}

TEST(PeriodicBurstTrafficTest, BurstLengthControlsRotation)
{
    PeriodicBurstTraffic gen(4, 1.0, 10, /*burst=*/8);
    std::vector<Cell> cells;
    for (SlotTime s = 0; s < 64; ++s) {
        cells.clear();
        gen.generate(s, cells);
        for (const Cell& c : cells)
            EXPECT_EQ(c.output, static_cast<PortId>((s / 8) % 4));
    }
}

TEST(PeriodicBurstTrafficTest, DefaultBurstIsNSquared)
{
    PeriodicBurstTraffic gen(4, 1.0, 10);
    std::vector<Cell> cells;
    gen.generate(15, cells);  // still within the first burst of 16
    for (const Cell& c : cells)
        EXPECT_EQ(c.output, 0);
}

TEST(PeriodicBurstTrafficTest, LoadScalesArrivals)
{
    PeriodicBurstTraffic gen(8, 0.25, 11);
    auto cells = collect(gen, 8000);
    EXPECT_NEAR(static_cast<double>(cells.size()) / (8000 * 8), 0.25, 0.01);
}

TEST(HotspotTrafficTest, FractionReachesHotspot)
{
    HotspotTraffic gen(8, 1.0, 3, 0.5, 12);
    auto cells = collect(gen, 10000);
    int64_t hot = 0;
    for (const Cell& c : cells)
        if (c.output == 3)
            ++hot;
    // 0.5 directly + 0.5 * 1/8 uniform spillover = 0.5625.
    EXPECT_NEAR(static_cast<double>(hot) / cells.size(), 0.5625, 0.01);
}

TEST(BurstyTrafficTest, LongRunLoadMatches)
{
    BurstyTraffic gen(8, 0.4, 10.0, 13);
    auto cells = collect(gen, 60000);
    EXPECT_NEAR(static_cast<double>(cells.size()) / (60000 * 8), 0.4, 0.02);
}

TEST(BurstyTrafficTest, CellsArriveInBurstsToOneDestination)
{
    BurstyTraffic gen(2, 0.3, 20.0, 14);
    auto cells = collect(gen, 40000);
    // Measure mean run length of same-destination consecutive cells per
    // input; with mean burst 20 it should be well above 5.
    std::map<PortId, std::pair<PortId, SlotTime>> last;  // input -> (dest, slot)
    std::map<PortId, int64_t> runs;
    std::map<PortId, int64_t> cells_per_input;
    for (const Cell& c : cells) {
        ++cells_per_input[c.input];
        auto it = last.find(c.input);
        bool continues = it != last.end() &&
                         it->second.first == c.output &&
                         it->second.second == c.inject_slot - 1;
        if (!continues)
            ++runs[c.input];
        last[c.input] = {c.output, c.inject_slot};
    }
    for (auto [input, count] : cells_per_input) {
        double mean_run =
            static_cast<double>(count) / static_cast<double>(runs[input]);
        EXPECT_GT(mean_run, 5.0) << "input " << input;
    }
}

TEST(BurstyTrafficTest, InvalidConfigRejected)
{
    EXPECT_THROW(BurstyTraffic(4, 1.0, 10.0, 1), UsageError);
    EXPECT_THROW(BurstyTraffic(4, 0.5, 0.5, 1), UsageError);
}

TEST(TraceTrafficTest, ReplaysRecordsAtTheirSlots)
{
    TraceTraffic gen(4, {{5, 0, 1}, {2, 3, 2}, {5, 1, 0}});
    std::vector<Cell> cells;
    for (SlotTime s = 0; s < 10; ++s)
        gen.generate(s, cells);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].inject_slot, 2);
    EXPECT_EQ(cells[0].input, 3);
    EXPECT_EQ(cells[1].inject_slot, 5);
    EXPECT_EQ(cells[1].input, 0);
    EXPECT_EQ(cells[2].inject_slot, 5);
    EXPECT_EQ(cells[2].input, 1);
    EXPECT_EQ(gen.records(), 3);
}

TEST(TraceTrafficTest, SequenceNumbersPerConnection)
{
    TraceTraffic gen(2, {{0, 0, 1}, {1, 0, 1}, {2, 0, 0}});
    std::vector<Cell> cells;
    for (SlotTime s = 0; s < 3; ++s)
        gen.generate(s, cells);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].seq, 0);
    EXPECT_EQ(cells[1].seq, 1);  // same connection (0,1)
    EXPECT_EQ(cells[2].seq, 0);  // new connection (0,0)
}

TEST(TraceTrafficTest, ValidatesRecords)
{
    EXPECT_THROW(TraceTraffic(2, {{0, 5, 0}}), UsageError);
    EXPECT_THROW(TraceTraffic(2, {{0, 0, 5}}), UsageError);
    EXPECT_THROW(TraceTraffic(2, {{-1, 0, 0}}), UsageError);
    // Two cells on one input in one slot: the link can't carry both.
    EXPECT_THROW(TraceTraffic(2, {{3, 1, 0}, {3, 1, 1}}), UsageError);
}

TEST(TraceTrafficTest, ParsesCsv)
{
    std::istringstream csv(
        "# slot,input,output\n"
        "0,0,3\n"
        "\n"
        "2,1,2\n");
    TraceTraffic gen = TraceTraffic::fromCsv(4, csv);
    EXPECT_EQ(gen.records(), 2);
    std::vector<Cell> cells;
    for (SlotTime s = 0; s < 3; ++s)
        gen.generate(s, cells);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[1].output, 2);
}

TEST(TraceTrafficTest, RejectsMalformedCsv)
{
    std::istringstream csv("0,zero,3\n");
    EXPECT_THROW(TraceTraffic::fromCsv(4, csv), UsageError);
}

TEST(TraceTrafficTest, RequiresMonotoneDrivingSlots)
{
    TraceTraffic gen(2, {{0, 0, 0}});
    std::vector<Cell> cells;
    gen.generate(0, cells);
    EXPECT_THROW(gen.generate(0, cells), UsageError);
}

}  // namespace
}  // namespace an2
