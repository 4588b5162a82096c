/**
 * @file
 * Umbrella header: the public API of an2sim in one include.
 *
 *     #include "an2/an2.h"
 *
 * Groups (see README.md for the architecture overview):
 *  - base:      PRNG, statistics, matrices, error handling
 *  - cell:      cells, flows, routing tables
 *  - matching:  PIM, statistical matching, multicast PIM, baselines
 *  - queueing:  per-flow FIFOs, VOQ input buffers, output queues
 *  - fabric:    crossbar, Batcher-banyan, cost model
 *  - cbr:       reservations, Slepian-Duguid schedules, subframes,
 *               admission control, Appendix B timing bounds
 *  - sim:       slot-synchronous switch simulator and workloads
 *  - harness:   parallel deterministic experiment sweeps + JSON results
 *  - network:   multi-hop simulator with drifting clocks
 */
#ifndef AN2_AN2_H
#define AN2_AN2_H

#include "an2/base/error.h"
#include "an2/base/matrix.h"
#include "an2/base/rng.h"
#include "an2/base/stats.h"
#include "an2/base/types.h"

#include "an2/cell/cell.h"

#include "an2/matching/fill_in.h"
#include "an2/matching/hopcroft_karp.h"
#include "an2/matching/islip.h"
#include "an2/matching/matcher.h"
#include "an2/matching/matching.h"
#include "an2/matching/multicast.h"
#include "an2/matching/pim.h"
#include "an2/matching/request_matrix.h"
#include "an2/matching/serial_greedy.h"
#include "an2/matching/statistical.h"

#include "an2/queueing/voq.h"

#include "an2/fabric/batcher_banyan.h"
#include "an2/fabric/cost_model.h"
#include "an2/fabric/crossbar.h"

#include "an2/cbr/admission.h"
#include "an2/cbr/frame_schedule.h"
#include "an2/cbr/reservations.h"
#include "an2/cbr/slepian_duguid.h"
#include "an2/cbr/subframes.h"
#include "an2/cbr/timing.h"

#include "an2/sim/iq_switch.h"
#include "an2/sim/metrics.h"
#include "an2/sim/simulator.h"
#include "an2/sim/traffic.h"

#include "an2/harness/aggregate.h"
#include "an2/harness/arch.h"
#include "an2/harness/json_writer.h"
#include "an2/harness/sweep.h"

#include "an2/network/clock.h"
#include "an2/network/controller.h"
#include "an2/network/link.h"
#include "an2/network/net_switch.h"
#include "an2/network/network.h"
#include "an2/network/node.h"

#endif  // AN2_AN2_H
