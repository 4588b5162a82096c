/**
 * @file
 * an2bench: run one workload in this process and print its result as one
 * JSON line.
 *
 *     an2bench --workload iq16_pim_cbr --seed 7 --seconds 5 [--trace 1]
 *              [--spans PATH]
 *
 * Workloads: iq1024_islip_warm, iq16_pim_cbr, lan_k16_par2, lan_k8_serial
 * (see README.md). run.py builds this program, runs it, and turns its
 * output into the benchmark's result line.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "an2/base/rng.h"
#include "report.h"
#include "workloads.h"

namespace an2bench {

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t s = seed ^ (UINT64_C(0x9e3779b97f4a7c15) * (stream + 1));
    return an2::splitmix64(s);
}

namespace {

bool
parseArgs(int argc, char** argv, RunOptions& opt, std::string& err)
{
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (i + 1 >= argc) {
            err = std::string(a) + " needs a value";
            return false;
        }
        const char* v = argv[++i];
        char* end = nullptr;
        if (!std::strcmp(a, "--workload")) {
            opt.workload = v;
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (!std::strcmp(a, "--seconds")) {
            opt.seconds = std::strtod(v, &end);
            if (*end == '\0' && !(opt.seconds > 0.0 && opt.seconds <= 120.0))
                err = "--seconds must be in (0, 120]";
        } else if (!std::strcmp(a, "--trace")) {
            opt.trace = std::strtol(v, &end, 10) != 0;
        } else if (!std::strcmp(a, "--spans")) {
            opt.spans_path = v;
        } else {
            err = std::string("unknown option ") + a;
        }
        if (err.empty() && end != nullptr && (*end != '\0' || end == v))
            err = std::string("bad value for ") + a + ": " + v;
        if (!err.empty())
            return false;
    }
    if (opt.workload.empty())
        err = "--workload is required";
    return err.empty();
}

}  // namespace

}  // namespace an2bench

int
main(int argc, char** argv)
{
    using namespace an2bench;
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "error: an2bench was built without optimization; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
#endif
    RunOptions opt;
    std::string err;
    if (!parseArgs(argc, argv, opt, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 2;
    }
    try {
        Report report;
        if (!runSwitchWorkload(opt, report) && !runLanWorkload(opt, report)) {
            std::fprintf(stderr, "error: unknown workload %s\n",
                         opt.workload.c_str());
            return 2;
        }
        printReport(opt, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
