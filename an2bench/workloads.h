/**
 * @file
 * The four an2bench workloads: two single switches and two LANs.
 * README.md says why each exists and which layer it loads.
 */
#ifndef AN2BENCH_WORKLOADS_H
#define AN2BENCH_WORKLOADS_H

#include <cstdint>

#include "report.h"

namespace an2bench {

/** Run a single-switch workload; false when `opt.workload` is not one. */
bool runSwitchWorkload(const RunOptions& opt, Report& report);

/** Run a LAN workload; false when `opt.workload` is not one. */
bool runLanWorkload(const RunOptions& opt, Report& report);

/** Independent seed number `stream` derived from the workload seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

}  // namespace an2bench

#endif  // AN2BENCH_WORKLOADS_H
