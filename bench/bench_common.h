/**
 * @file
 * Shared helpers for the experiment harnesses: fixed-width table
 * printing, the result-file writer and canonical simulation wrappers.
 * Every bench binary prints the rows/series of the paper artifact it
 * reproduces.
 */
#ifndef AN2_BENCH_BENCH_COMMON_H
#define AN2_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <memory>
#include <string>

#include "an2/matching/pim.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/simulator.h"

namespace an2::bench {

/** Print a bench header banner. */
inline void
banner(const std::string& title, const std::string& paper_ref)
{
    std::printf("\n============================================================"
                "====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("--------------------------------------------------------------"
                "------------------\n");
}

/**
 * Write `doc` to `path`, or to stdout for "-"; `what` names the document
 * in the stderr report. Returns false, with an error line on stderr,
 * when the file cannot be written.
 */
inline bool
writeTextFile(const std::string& path, const std::string& doc,
              const char* what)
{
    if (path == "-") {
        std::fwrite(doc.data(), 1, doc.size(), stdout);
        return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    bool ok = (n == doc.size()) && std::fclose(f) == 0;
    if (ok)
        std::fprintf(stderr, "  wrote %s %s (%zu bytes)\n", what,
                     path.c_str(), doc.size());
    else
        std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return ok;
}

/** Construct a PIM matcher with the given iteration count and seed. */
inline std::unique_ptr<Matcher>
makePim(int iterations, uint64_t seed, int output_capacity = 1,
        AcceptPolicy accept = AcceptPolicy::Random)
{
    PimConfig cfg;
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.output_capacity = output_capacity;
    cfg.accept = accept;
    return std::make_unique<PimMatcher>(cfg);
}

/** Canonical load sweep used by the Figure 3/4/5 benches. */
inline const double kLoadSweep[] = {0.20, 0.40, 0.60, 0.70, 0.80,
                                    0.90, 0.95, 0.99};
inline constexpr int kLoadSweepSize = 8;

/** Standard simulation length for the delay-vs-load experiments. */
inline SimConfig
standardSimConfig()
{
    SimConfig cfg;
    cfg.slots = 120'000;
    cfg.warmup = 20'000;
    return cfg;
}

}  // namespace an2::bench

#endif  // AN2_BENCH_BENCH_COMMON_H
