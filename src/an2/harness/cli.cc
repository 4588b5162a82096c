#include "an2/harness/cli.h"

#include <cstdio>
#include <cstring>

#include "an2/base/error.h"
#include "an2/base/parse.h"
#include "an2/harness/arch.h"

namespace an2::harness {

void
printSweepCliHelp(const char* prog, const char* switch_experiments,
                  const char* network_experiments)
{
    const bool both = switch_experiments && network_experiments;
    std::printf("usage: %s [options]\n", prog);
    if (both) {
        std::printf("  --experiment NAME   experiment to run "
                    "(--list shows them)\n");
        std::printf("  --list              list available experiments\n");
    }
    std::printf("  --json PATH         write the results document "
                "('-' for stdout)\n");
    std::printf("  --threads N         worker threads "
                "(default: hardware concurrency;\n"
                "                      results are identical for any N)\n");
    std::printf("  --replicates R      independent replicates per cell\n");
    std::printf("  --seed X            base seed for deterministic "
                "seeding\n");
    std::printf("  --loads A,B,...     override the load axis\n");
    std::printf("  --faults SPEC       fault scenario applied to every run, "
                "e.g.\n"
                "                      "
                "out_down(3)@40000,out_up(3)@60000,drop(0.001)\n"
                "                      events: in_down in_up out_down out_up "
                "link_down\n"
                "                      link_up (port/link)@slot; modes: "
                "drop(p) corrupt(p)\n");
    std::printf("  --metrics FILE      write an an2.metrics.v1 JSON-lines "
                "time series\n"
                "                      for the observed run (counters, "
                "gauges, latency\n"
                "                      p50/p99/p999 per traffic class)\n");
    std::printf("  --metrics-every K   slots between metrics samples "
                "(default 1000;\n"
                "                      network experiments default to one "
                "frame)\n");
    std::printf("  --metrics-prom FILE write a Prometheus-style text "
                "exposition of the\n"
                "                      observed run's final state\n");
    std::printf("  --blackbox FILE     arm the flight recorder: dump an "
                "an2.blackbox.v1\n"
                "                      post-mortem on invariant failure "
                "or scripted\n"
                "                      port/link death\n");
    if (switch_experiments) {
        if (both)
            std::printf("switch experiments (%s) only:\n",
                        switch_experiments);
        std::printf("  --slots S           slots per run\n");
        std::printf("  --warmup W          warmup slots excluded from "
                    "metrics\n");
        std::printf("  --size N            override the switch size\n");
        std::printf("  --arch NAME         run this architecture instead of "
                    "the experiment's,\n"
                    "                      e.g. PIM(4), FIFO or "
                    "CIOQ(S=2,wrr) (see EXPERIMENTS.md)\n");
        std::printf("  --trace FILE        after the sweep, re-run one grid "
                    "point with probes\n"
                    "                      attached and write an "
                    "an2.trace.v1 Chrome trace\n");
        std::printf("  --trace-arch NAME   architecture to observe (default: "
                    "first PIM arch)\n");
        std::printf("  --trace-capacity N  event-ring capacity "
                    "(default 65536, drop-oldest)\n");
        std::printf("  --snapshot FILE     write an2.snapshot.v1 JSON-lines "
                    "(VOQ heatmap,\n"
                    "                      backlog, match-size histogram)\n");
        std::printf("  --snapshot-every K  slots between snapshots "
                    "(default 1000)\n");
    }
    if (network_experiments) {
        if (both)
            std::printf("network experiments (%s) only:\n",
                        network_experiments);
        std::printf("  --frames F          switch frames per run\n");
        std::printf("  --chaos SPEC        seeded random churn, e.g.\n"
                    "                      chaos(7,2.5,link+switch+storm) — "
                    "SEED, expected\n"
                    "                      episodes per 1000 slots, "
                    "'+'-joined kinds from\n"
                    "                      port link switch storm; expands "
                    "to a concrete\n"
                    "                      fault plan and enables CBR path "
                    "restoration\n");
    }
    std::printf("  --help              this message\n");
}

bool
parseLoadList(const char* arg, std::vector<double>& out, std::string& err)
{
    out.clear();
    const std::string text(arg);
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        double v = 0.0;
        if (!parseDouble(token, v) || v <= 0.0 || v > 1.0) {
            err = "bad load list '" + text + "': offending token '" + token +
                  "' (loads are in (0, 1])";
            return false;
        }
        out.push_back(v);
        pos = comma + 1;
    }
    return true;
}

bool
parseSweepCli(int argc, char** argv, SweepCli& cli, std::string& err)
{
    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            err = std::string(argv[i]) + " needs an argument";
            return nullptr;
        }
        return argv[++i];
    };
    // `--flag=value` form (the observability flags are documented this
    // way); returns the value or nullptr if `arg` is not `flag=...`.
    auto eqval = [](const char* arg, const char* flag) -> const char* {
        size_t n = std::strlen(flag);
        if (!std::strncmp(arg, flag, n) && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    // Repeated flags are an error, not last-wins: `--slots 100 --slots
    // 900` silently dropping one value has burned enough scripts. The
    // idempotent --help/--list toggles stay exempt.
    std::vector<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        const char* v = nullptr;
        if (std::strncmp(a, "--", 2) == 0 && a[2] != '\0') {
            std::string flag(a);
            if (size_t eq = flag.find('='); eq != std::string::npos)
                flag.resize(eq);
            if (flag != "--help" && flag != "--list") {
                for (const std::string& s : seen) {
                    if (s == flag) {
                        err = "duplicate option: " + flag +
                              " was given more than once";
                        return false;
                    }
                }
                seen.push_back(flag);
            }
            cli.given.push_back(flag);
        }
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            cli.help = true;
        } else if (!std::strcmp(a, "--list")) {
            cli.list = true;
        } else if (!std::strcmp(a, "--experiment")) {
            if (!(v = need(i)))
                return false;
            cli.experiment = v;
        } else if (!std::strcmp(a, "--json")) {
            if (!(v = need(i)))
                return false;
            cli.json_path = v;
        } else if (!std::strcmp(a, "--threads")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.threads) || cli.threads < 0) {
                err = badValue("--threads", v, "an integer >= 0");
                return false;
            }
        } else if (!std::strcmp(a, "--replicates")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.replicates) || cli.replicates <= 0) {
                err = badValue("--replicates", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--slots")) {
            if (!(v = need(i)))
                return false;
            int64_t slots = 0;
            if (!parseInt64(v, slots) || slots <= 0) {
                err = badValue("--slots", v, "a positive integer");
                return false;
            }
            cli.slots = slots;
        } else if (!std::strcmp(a, "--warmup")) {
            if (!(v = need(i)))
                return false;
            int64_t warmup = 0;
            if (!parseInt64(v, warmup) || warmup < 0) {
                err = badValue("--warmup", v, "an integer >= 0");
                return false;
            }
            cli.warmup = warmup;
        } else if (!std::strcmp(a, "--seed")) {
            if (!(v = need(i)))
                return false;
            if (!parseUint64(v, cli.seed)) {
                err = badValue("--seed", v, "an unsigned 64-bit integer");
                return false;
            }
            cli.seed_set = true;
        } else if (!std::strcmp(a, "--loads")) {
            if (!(v = need(i)))
                return false;
            if (!parseLoadList(v, cli.loads, err)) {
                err = "--loads: " + err;
                return false;
            }
        } else if (!std::strcmp(a, "--size")) {
            if (!(v = need(i)))
                return false;
            if (!parseInt(v, cli.size) || cli.size <= 0) {
                err = badValue("--size", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--arch")) {
            if (!(v = need(i)))
                return false;
            try {
                archByName(v);
            } catch (const UsageError&) {
                err = badValue("--arch", v, kArchGrammar);
                return false;
            }
            cli.arch = v;
        } else if (!std::strcmp(a, "--frames")) {
            if (!(v = need(i)))
                return false;
            int64_t frames = 0;
            if (!parseInt64(v, frames) || frames <= 0) {
                err = badValue("--frames", v, "a positive integer");
                return false;
            }
            cli.frames = frames;
        } else if (!std::strcmp(a, "--faults") ||
                   (v = eqval(a, "--faults")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            try {
                cli.faults = fault::FaultPlan::parse(v);
            } catch (const UsageError& e) {
                err = std::string("--faults: ") + e.what();
                return false;
            }
            cli.faults_spec = v;
        } else if (!std::strcmp(a, "--chaos") ||
                   (v = eqval(a, "--chaos")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            try {
                cli.chaos = fault::ChaosSpec::parse(v);
            } catch (const UsageError& e) {
                err = std::string("--chaos: ") + e.what();
                return false;
            }
            cli.chaos_spec = v;
        } else if (!std::strcmp(a, "--trace") ||
                   (v = eqval(a, "--trace")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.trace_path = v;
        } else if (!std::strcmp(a, "--trace-arch") ||
                   (v = eqval(a, "--trace-arch")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.trace_arch = v;
        } else if (!std::strcmp(a, "--trace-capacity") ||
                   (v = eqval(a, "--trace-capacity")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            int64_t cap = 0;
            if (!parseInt64(v, cap) || cap <= 0) {
                err = badValue("--trace-capacity", v, "a positive integer");
                return false;
            }
            cli.trace_capacity = cap;
        } else if (!std::strcmp(a, "--snapshot") ||
                   (v = eqval(a, "--snapshot")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.snapshot_path = v;
        } else if (!std::strcmp(a, "--snapshot-every") ||
                   (v = eqval(a, "--snapshot-every")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            if (!parseInt(v, cli.snapshot_every) ||
                cli.snapshot_every <= 0) {
                err = badValue("--snapshot-every", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--metrics") ||
                   (v = eqval(a, "--metrics")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.metrics_path = v;
        } else if (!std::strcmp(a, "--metrics-every") ||
                   (v = eqval(a, "--metrics-every")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            if (!parseInt(v, cli.metrics_every) || cli.metrics_every <= 0) {
                err = badValue("--metrics-every", v, "a positive integer");
                return false;
            }
        } else if (!std::strcmp(a, "--metrics-prom") ||
                   (v = eqval(a, "--metrics-prom")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.metrics_prom_path = v;
        } else if (!std::strcmp(a, "--blackbox") ||
                   (v = eqval(a, "--blackbox")) != nullptr) {
            if (!v && !(v = need(i)))
                return false;
            cli.blackbox_path = v;
        } else {
            err = std::string("unknown option: ") + a;
            return false;
        }
    }
    return true;
}

const char*
firstGiven(const SweepCli& cli, std::initializer_list<const char*> flags)
{
    for (const std::string& g : cli.given)
        for (const char* f : flags)
            if (g == f)
                return f;
    return nullptr;
}

void
applyCli(const SweepCli& cli, SweepSpec& spec)
{
    if (cli.replicates > 0)
        spec.replicates = cli.replicates;
    if (cli.slots > 0)
        spec.slots = cli.slots;
    if (cli.warmup >= 0)
        spec.warmup = cli.warmup;
    if (cli.seed_set)
        spec.base_seed = cli.seed;
    if (!cli.loads.empty())
        spec.loads = cli.loads;
    if (cli.size > 0)
        spec.sizes = {cli.size};
    if (!cli.faults.empty())
        spec.faults = cli.faults;
}

}  // namespace an2::harness
