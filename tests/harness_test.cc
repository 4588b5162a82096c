// Tests for the experiment-sweep subsystem (an2/harness/*): grid
// expansion, deterministic seeding, thread-count invariance of the JSON
// output, Welford aggregation, and the JSON emitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/error.h"
#include "an2/harness/aggregate.h"
#include "an2/harness/cli.h"
#include "an2/harness/json_writer.h"
#include "an2/harness/sweep.h"
#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"

namespace an2::harness {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.name = "test";
    spec.description = "unit-test sweep";
    spec.workload = "uniform";
    spec.archs = {
        {"OutputQueued",
         [](int n, uint64_t) -> std::unique_ptr<SwitchModel> {
             return std::make_unique<InputQueuedSwitch>(IqSwitchConfig{
                 .n = n, .service = ServiceDiscipline::Fifo});
         }},
        {"PIM(2)",
         [](int n, uint64_t seed) -> std::unique_ptr<SwitchModel> {
             PimConfig cfg;
             cfg.iterations = 2;
             cfg.seed = seed;
             return std::make_unique<InputQueuedSwitch>(
                 IqSwitchConfig{.n = n}, std::make_unique<PimMatcher>(cfg));
         }},
    };
    spec.sizes = {4, 8};
    spec.loads = {0.3, 0.6};
    spec.replicates = 3;
    spec.base_seed = 42;
    spec.slots = 2'000;
    spec.warmup = 200;
    spec.make_traffic = [](int n, double load, uint64_t seed) {
        return std::make_unique<UniformTraffic>(n, load, seed);
    };
    return spec;
}

// ------------------------------------------------------------------ sweep

TEST(SweepTest, GridExpansionOrderAndSeeds)
{
    SweepSpec spec = smallSpec();
    std::vector<RunPoint> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), 2u * 2u * 2u * 3u);
    // Arch-major, then size, then load, then replicate.
    EXPECT_EQ(grid[0].arch_index, 0);
    EXPECT_EQ(grid[0].size_index, 0);
    EXPECT_EQ(grid[0].load_index, 0);
    EXPECT_EQ(grid[0].replicate, 0);
    EXPECT_EQ(grid[1].replicate, 1);
    EXPECT_EQ(grid[3].load_index, 1);
    EXPECT_EQ(grid[6].size_index, 1);
    EXPECT_EQ(grid[12].arch_index, 1);
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].run_index, static_cast<int>(i));
        // Switch seeds are pure functions of (base_seed, run_index) and
        // unique; traffic seeds key off the workload coordinate so the
        // two architectures face identical arrivals at each cell.
        EXPECT_EQ(grid[i].switch_seed, runSeed(42, grid[i].run_index, 0));
        int workload = (grid[i].size_index * 2 + grid[i].load_index) * 3 +
                       grid[i].replicate;
        EXPECT_EQ(grid[i].traffic_seed, runSeed(42, workload, 1));
        EXPECT_NE(grid[i].switch_seed, grid[i].traffic_seed);
        for (size_t j = 0; j < i; ++j)
            EXPECT_NE(grid[i].switch_seed, grid[j].switch_seed);
    }
    // Common random numbers: run 0 (arch 0) and run 12 (arch 1) share
    // the same (size, load, replicate) coordinate, hence the same
    // traffic stream.
    EXPECT_EQ(grid[0].traffic_seed, grid[12].traffic_seed);
    EXPECT_NE(grid[0].switch_seed, grid[12].switch_seed);
}

TEST(SweepTest, CommonRandomNumbersPairArchitectures)
{
    // Two "architectures" that are byte-identical models must produce
    // byte-identical results at every cell, because they see the same
    // arrivals. This is what makes cross-architecture deltas paired.
    SweepSpec spec = smallSpec();
    auto oq = [](int n, uint64_t) -> std::unique_ptr<SwitchModel> {
        return std::make_unique<InputQueuedSwitch>(
            IqSwitchConfig{.n = n, .service = ServiceDiscipline::Fifo});
    };
    spec.archs = {{"A", oq}, {"B", oq}};
    spec.replicates = 1;
    SweepResult res = runSweep(spec, 2);
    std::vector<CellSummary> cells = aggregate(spec, res);
    ASSERT_EQ(cells.size(), 8u);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(cells[i].mean_delay.mean,
                         cells[i + 4].mean_delay.mean);
        EXPECT_EQ(cells[i].delivered, cells[i + 4].delivered);
    }
}

TEST(SweepTest, InvalidSpecsRejected)
{
    SweepSpec spec = smallSpec();
    spec.archs.clear();
    EXPECT_THROW(expandGrid(spec), UsageError);

    spec = smallSpec();
    spec.loads.clear();
    EXPECT_THROW(expandGrid(spec), UsageError);

    spec = smallSpec();
    spec.replicates = 0;
    EXPECT_THROW(expandGrid(spec), UsageError);

    spec = smallSpec();
    spec.make_traffic = nullptr;
    EXPECT_THROW(expandGrid(spec), UsageError);

    spec = smallSpec();
    spec.sizes = {0};
    EXPECT_THROW(expandGrid(spec), UsageError);
}

TEST(SweepTest, RunErrorsPropagateToCaller)
{
    SweepSpec spec = smallSpec();
    spec.warmup = spec.slots;  // every run invalid: zero measured slots
    EXPECT_THROW(runSweep(spec, 2), UsageError);
}

TEST(SweepTest, ThreadCountInvariance)
{
    // The acceptance property of the whole subsystem: the same spec must
    // produce a byte-identical JSON document at 1 and 8 threads.
    SweepSpec spec = smallSpec();

    SweepResult serial = runSweep(spec, 1);
    SweepResult parallel = runSweep(spec, 8);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].mean_delay, parallel.results[i].mean_delay);
        EXPECT_EQ(serial.results[i].delivered, parallel.results[i].delivered);
    }

    std::string json1 = sweepToJson(spec, aggregate(spec, serial));
    std::string json8 = sweepToJson(spec, aggregate(spec, parallel));
    EXPECT_EQ(json1, json8);
}

TEST(SweepTest, FaultedSweepThreadInvarianceAndGatedJson)
{
    // With a fault plan attached, the sweep must stay byte-identical
    // across thread counts (fault-seed stream 2 is a pure function of
    // the run index), and the JSON must carry the fault metadata and
    // per-cell loss fields — which are absent from unfaulted documents.
    SweepSpec spec = smallSpec();
    spec.slots = 1'000;
    spec.faults = fault::FaultPlan::parse(
        "out_down(1)@300,out_up(1)@600,drop(0.02)");

    SweepResult serial = runSweep(spec, 1);
    SweepResult parallel = runSweep(spec, 8);
    std::string json1 = sweepToJson(spec, aggregate(spec, serial));
    std::string json8 = sweepToJson(spec, aggregate(spec, parallel));
    EXPECT_EQ(json1, json8);

    EXPECT_NE(json1.find("\"faults\": \"out_down(1)@300,out_up(1)@600,"
                         "drop(0.02)\""),
              std::string::npos);
    EXPECT_NE(json1.find("\"fault_dropped\""), std::string::npos);
    EXPECT_NE(json1.find("\"fault_corrupted\""), std::string::npos);
    EXPECT_NE(json1.find("\"switch_dropped\""), std::string::npos);

    // Losses actually happened (drop(0.02) over every run).
    int64_t fault_dropped = 0;
    for (const SimResult& r : serial.results)
        fault_dropped += r.fault_dropped;
    EXPECT_GT(fault_dropped, 0);

    // The unfaulted document is unchanged by the feature's existence.
    SweepSpec clean = smallSpec();
    clean.slots = 1'000;
    std::string clean_json =
        sweepToJson(clean, aggregate(clean, runSweep(clean, 2)));
    EXPECT_EQ(clean_json.find("\"faults\""), std::string::npos);
    EXPECT_EQ(clean_json.find("fault_dropped"), std::string::npos);
    EXPECT_EQ(clean_json.find("switch_dropped"), std::string::npos);
}

TEST(SweepTest, ProgressReachesTotal)
{
    SweepSpec spec = smallSpec();
    spec.replicates = 1;
    int last = 0;
    int calls = 0;
    SweepResult res = runSweep(spec, 2, [&](int done, int total) {
        EXPECT_EQ(total, 8);
        last = std::max(last, done);
        ++calls;
    });
    EXPECT_EQ(last, 8);
    EXPECT_EQ(calls, 8);
    EXPECT_EQ(res.results.size(), 8u);
}

// -------------------------------------------------------------- aggregate

TEST(AggregateTest, WelfordMatchesHandComputedValues)
{
    // One arch, one size, one load, three replicates with known outputs:
    // feed synthetic SimResults straight into aggregate().
    SweepSpec spec = smallSpec();
    spec.archs.resize(1);
    spec.sizes = {4};
    spec.loads = {0.5};
    spec.replicates = 3;

    SweepResult fake;
    fake.grid = expandGrid(spec);
    fake.results.resize(3);
    const double delays[3] = {2.0, 4.0, 9.0};
    for (int i = 0; i < 3; ++i) {
        fake.results[i].mean_delay = delays[i];
        fake.results[i].p99_delay = 10.0 * delays[i];
        fake.results[i].throughput = 0.5;
        fake.results[i].offered = 0.5;
        fake.results[i].injected = 100 + i;
        fake.results[i].delivered = 90 + i;
        fake.results[i].max_occupancy = 7 * (i + 1);
    }

    std::vector<CellSummary> cells = aggregate(spec, fake);
    ASSERT_EQ(cells.size(), 1u);
    const CellSummary& c = cells[0];
    EXPECT_EQ(c.replicates, 3);
    // Hand-computed: mean = 5, unbiased variance = ((−3)² + (−1)² + 4²)/2
    // = 13, stddev = sqrt(13), ci95 = 1.96·sqrt(13)/sqrt(3).
    EXPECT_DOUBLE_EQ(c.mean_delay.mean, 5.0);
    EXPECT_NEAR(c.mean_delay.stddev, std::sqrt(13.0), 1e-12);
    EXPECT_NEAR(c.mean_delay.ci95, 1.96 * std::sqrt(13.0) / std::sqrt(3.0),
                1e-12);
    EXPECT_DOUBLE_EQ(c.mean_delay.min, 2.0);
    EXPECT_DOUBLE_EQ(c.mean_delay.max, 9.0);
    EXPECT_DOUBLE_EQ(c.p99_delay.mean, 50.0);
    EXPECT_DOUBLE_EQ(c.throughput.mean, 0.5);
    EXPECT_DOUBLE_EQ(c.throughput.stddev, 0.0);
    EXPECT_EQ(c.injected, 100 + 101 + 102);
    EXPECT_EQ(c.delivered, 90 + 91 + 92);
    EXPECT_EQ(c.max_occupancy, 21);
}

TEST(AggregateTest, SingleReplicateHasZeroCi)
{
    RunningStats s;
    s.add(3.5);
    Aggregate a = summarize(s);
    EXPECT_EQ(a.n, 1);
    EXPECT_DOUBLE_EQ(a.mean, 3.5);
    EXPECT_DOUBLE_EQ(a.stddev, 0.0);
    EXPECT_DOUBLE_EQ(a.ci95, 0.0);
    EXPECT_DOUBLE_EQ(a.min, 3.5);
    EXPECT_DOUBLE_EQ(a.max, 3.5);
}

TEST(AggregateTest, CellOrderMatchesAxes)
{
    SweepSpec spec = smallSpec();
    SweepResult res = runSweep(spec, 4);
    std::vector<CellSummary> cells = aggregate(spec, res);
    ASSERT_EQ(cells.size(), 8u);  // 2 archs x 2 sizes x 2 loads
    EXPECT_EQ(cells[0].arch, "OutputQueued");
    EXPECT_EQ(cells[0].size, 4);
    EXPECT_DOUBLE_EQ(cells[0].load, 0.3);
    EXPECT_DOUBLE_EQ(cells[1].load, 0.6);
    EXPECT_EQ(cells[2].size, 8);
    EXPECT_EQ(cells[4].arch, "PIM(2)");
    // Sanity: OQ at 30% load on a 4-port switch delivers what's offered.
    EXPECT_NEAR(cells[0].throughput.mean, cells[0].offered.mean, 0.02);
}

// ------------------------------------------------------------ json writer

TEST(JsonWriterTest, EscapingGoldenString)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("tab\there\nnewline"), "tab\\there\\nnewline");
    EXPECT_EQ(jsonEscape(std::string("nul\x01") + "\x1f!"),
              "nul\\u0001\\u001f!");
    EXPECT_EQ(jsonEscape("\b\f\r"), "\\b\\f\\r");
}

TEST(JsonWriterTest, NumbersShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.2), "0.2");
    EXPECT_EQ(jsonNumber(0.95), "0.95");
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(-3.25), "-3.25");
    EXPECT_EQ(jsonNumber(1.0 / 3.0), "0.3333333333333333");
    // Round trip: parse back to the identical double.
    double ugly = 123456.789012345;
    EXPECT_EQ(std::strtod(jsonNumber(ugly).c_str(), nullptr), ugly);
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(JsonWriterTest, DocumentGolden)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("a\"b");
    w.key("n").value(3);
    w.key("x").value(0.5);
    w.key("ok").value(true);
    w.key("none").null();
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("empty").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"name\": \"a\\\"b\",\n"
                       "  \"n\": 3,\n"
                       "  \"x\": 0.5,\n"
                       "  \"ok\": true,\n"
                       "  \"none\": null,\n"
                       "  \"list\": [\n"
                       "    1,\n"
                       "    2\n"
                       "  ],\n"
                       "  \"empty\": {}\n"
                       "}\n");
}

TEST(JsonWriterTest, CompactStyleGolden)
{
    // The same document as DocumentGolden, emitted on one physical line
    // with no whitespace — the JSON-lines mode used by obs snapshots and
    // trace export.
    JsonWriter w(JsonStyle::Compact);
    w.beginObject();
    w.key("name").value("a\"b");
    w.key("n").value(3);
    w.key("x").value(0.5);
    w.key("ok").value(true);
    w.key("none").null();
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("empty").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"name\":\"a\\\"b\",\"n\":3,\"x\":0.5,"
                       "\"ok\":true,\"none\":null,\"list\":[1,2],"
                       "\"empty\":{}}\n");
}

TEST(JsonWriterTest, StructuralMisuseAsserts)
{
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.value(1), InternalError);  // value without key
    }
    {
        JsonWriter w;
        w.beginArray();
        EXPECT_THROW(w.key("k"), InternalError);  // key inside array
    }
    {
        JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.str(), InternalError);  // unfinished document
    }
    {
        JsonWriter w;
        w.beginObject();
        w.key("k");
        EXPECT_THROW(w.endObject(), InternalError);  // key without value
    }
}

TEST(JsonWriterTest, SweepSchemaShape)
{
    SweepSpec spec = smallSpec();
    spec.archs.resize(1);
    spec.sizes = {4};
    spec.loads = {0.3};
    spec.replicates = 2;
    SweepResult res = runSweep(spec, 1);
    std::string json = sweepToJson(spec, aggregate(spec, res));

    // Stable schema markers (consumed by the BENCH_*.json trajectory).
    EXPECT_NE(json.find("\"schema\": \"an2.sweep.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"experiment\": \"test\""), std::string::npos);
    EXPECT_NE(json.find("\"base_seed\": \"42\""), std::string::npos);
    EXPECT_NE(json.find("\"axes\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"mean_delay\""), std::string::npos);
    EXPECT_NE(json.find("\"ci95\""), std::string::npos);
    EXPECT_EQ(json.find("wall"), std::string::npos);  // no timing data
}

TEST(JsonWriterTest, NonFiniteValuesEmitNullInDocuments)
{
    // Document-level pin of the NaN/Inf policy: a non-finite double
    // anywhere in a document must come out as JSON null, keeping the
    // output parseable (bare `nan`/`inf` tokens are not JSON).
    JsonWriter w;
    w.beginObject();
    w.key("nan").value(std::nan(""));
    w.key("pos_inf").value(std::numeric_limits<double>::infinity());
    w.key("neg_inf").value(-std::numeric_limits<double>::infinity());
    w.key("mixed")
        .beginArray()
        .value(1.5)
        .value(std::nan(""))
        .value(2.5)
        .endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"nan\": null,\n"
                       "  \"pos_inf\": null,\n"
                       "  \"neg_inf\": null,\n"
                       "  \"mixed\": [\n"
                       "    1.5,\n"
                       "    null,\n"
                       "    2.5\n"
                       "  ]\n"
                       "}\n");
}

// -------------------------------------------------------------------- cli

/** Run parseSweepCli over a brace-list of tokens (argv[0] included). */
bool
parseArgs(std::initializer_list<const char*> tokens, SweepCli& cli,
          std::string& err)
{
    std::vector<char*> argv;
    for (const char* t : tokens)
        argv.push_back(const_cast<char*>(t));
    return parseSweepCli(static_cast<int>(argv.size()), argv.data(), cli,
                         err);
}

TEST(CliTest, ParsesTheFullVocabulary)
{
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(parseArgs({"prog", "--experiment", "fig3", "--threads", "4",
                           "--replicates", "7", "--slots", "5000",
                           "--warmup", "100", "--seed", "99", "--loads",
                           "0.5,0.9", "--size", "16", "--json", "out.json",
                           "--faults", "out_down(2)@10,out_up(2)@20"},
                          cli, err))
        << err;
    EXPECT_EQ(cli.experiment, "fig3");
    EXPECT_EQ(cli.threads, 4);
    EXPECT_EQ(cli.replicates, 7);
    EXPECT_EQ(cli.slots, 5000);
    EXPECT_EQ(cli.warmup, 100);
    EXPECT_TRUE(cli.seed_set);
    EXPECT_EQ(cli.seed, 99u);
    ASSERT_EQ(cli.loads.size(), 2u);
    EXPECT_EQ(cli.loads[1], 0.9);
    EXPECT_EQ(cli.size, 16);
    EXPECT_EQ(cli.json_path, "out.json");
    EXPECT_EQ(cli.faults.events.size(), 2u);
    EXPECT_EQ(cli.faults_spec, "out_down(2)@10,out_up(2)@20");
}

TEST(CliTest, UnknownFlagNamesTheToken)
{
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(parseArgs({"prog", "--bogus"}, cli, err));
    EXPECT_NE(err.find("--bogus"), std::string::npos) << err;
}

TEST(CliTest, MalformedNumericsNameFlagAndValue)
{
    struct Case
    {
        const char* flag;
        const char* value;
    };
    for (Case c : {Case{"--threads", "banana"}, Case{"--threads", "-1"},
                   Case{"--replicates", "2x"}, Case{"--slots", "1e4"},
                   Case{"--warmup", "ten"}, Case{"--seed", "-3"},
                   Case{"--size", "99999999999999999999"},
                   Case{"--loads", "0.5,oops"}, Case{"--loads", "1.5"},
                   Case{"--loads", "0"}}) {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(parseArgs({"prog", c.flag, c.value}, cli, err))
            << c.flag << " " << c.value;
        EXPECT_NE(err.find(c.flag), std::string::npos)
            << c.flag << ": " << err;
    }
}

TEST(CliTest, MissingValueAndBadFaultSpecAreErrors)
{
    {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(parseArgs({"prog", "--threads"}, cli, err));
        EXPECT_NE(err.find("--threads"), std::string::npos) << err;
    }
    {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(
            parseArgs({"prog", "--faults", "explode(3)@5"}, cli, err));
        EXPECT_NE(err.find("explode"), std::string::npos) << err;
    }
}

TEST(CliTest, RepeatedFlagIsAnErrorNamingTheFlag)
{
    // Last-wins on a repeated flag would silently discard one of two
    // conflicting values; the parser must refuse and say which flag.
    struct Case
    {
        std::initializer_list<const char*> tokens;
        const char* flag;
    };
    for (const Case& c :
         {Case{{"prog", "--threads", "2", "--threads", "4"}, "--threads"},
          Case{{"prog", "--loads", "0.5", "--loads", "0.9"}, "--loads"},
          Case{{"prog", "--json", "a.json", "--json", "b.json"}, "--json"},
          Case{{"prog", "--metrics-every=5", "--metrics-every", "7"},
               "--metrics-every"},
          Case{{"prog", "--arch", "cioq", "--arch", "cioq"}, "--arch"}}) {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(parseArgs(c.tokens, cli, err)) << c.flag;
        EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
        EXPECT_NE(err.find(c.flag), std::string::npos) << err;
    }
    // --help and --list stay idempotent: wrappers commonly append them.
    SweepCli cli;
    std::string err;
    EXPECT_TRUE(parseArgs({"prog", "--help", "--help"}, cli, err)) << err;
    EXPECT_TRUE(cli.help);
}

TEST(CliTest, ObservabilityIntervalsRejectZeroAndNegative)
{
    // A zero or negative cadence/capacity would fall through to "never
    // sample" or an empty ring; the parser rejects it outright.
    struct Case
    {
        const char* flag;
        const char* value;
    };
    for (Case c : {Case{"--metrics-every", "0"},
                   Case{"--metrics-every", "-3"},
                   Case{"--trace-capacity", "0"},
                   Case{"--trace-capacity", "-1"},
                   Case{"--snapshot-every", "0"},
                   Case{"--snapshot-every", "-7"}}) {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(parseArgs({"prog", c.flag, c.value}, cli, err))
            << c.flag << " " << c.value;
        EXPECT_NE(err.find(c.flag), std::string::npos)
            << c.flag << ": " << err;
    }
}

TEST(CliTest, CioqArchFlagsValidated)
{
    {
        SweepCli cli;
        std::string err;
        ASSERT_TRUE(parseArgs({"prog", "--arch", "cioq", "--speedup", "3",
                               "--service", "wrr"},
                              cli, err))
            << err;
        EXPECT_EQ(cli.arch, "cioq");
        EXPECT_EQ(cli.speedup, 3);
        EXPECT_EQ(cli.service, "wrr");
    }
    for (auto tokens :
         {std::initializer_list<const char*>{"prog", "--arch", "oq"},
          {"prog", "--arch", "cioq", "--speedup", "0"},
          {"prog", "--arch", "cioq", "--speedup", "5"},
          {"prog", "--arch", "cioq", "--service", "fifo"},
          {"prog", "--speedup", "2"},
          {"prog", "--service", "wrr"}}) {
        SweepCli cli;
        std::string err;
        EXPECT_FALSE(parseArgs(tokens, cli, err));
        EXPECT_FALSE(err.empty());
    }
    // The dependency errors name the missing flag.
    SweepCli cli;
    std::string err;
    EXPECT_FALSE(parseArgs({"prog", "--speedup", "2"}, cli, err));
    EXPECT_NE(err.find("--arch cioq"), std::string::npos) << err;
}

TEST(CliTest, ApplyCliOverlaysOntoSpec)
{
    SweepCli cli;
    std::string err;
    ASSERT_TRUE(parseArgs({"prog", "--replicates", "2", "--slots", "700",
                           "--loads", "0.4", "--size", "8", "--faults",
                           "in_down(0)@5,drop(0.1)"},
                          cli, err))
        << err;
    SweepSpec spec = smallSpec();
    applyCli(cli, spec);
    EXPECT_EQ(spec.replicates, 2);
    EXPECT_EQ(spec.slots, 700);
    ASSERT_EQ(spec.loads.size(), 1u);
    EXPECT_EQ(spec.loads[0], 0.4);
    ASSERT_EQ(spec.sizes.size(), 1u);
    EXPECT_EQ(spec.sizes[0], 8);
    EXPECT_FALSE(spec.faults.empty());
    EXPECT_EQ(spec.faults.str(), "in_down(0)@5,drop(0.1)");
}

}  // namespace
}  // namespace an2::harness
