/**
 * @file
 * The architecture registry: one parser from the display names that the
 * result documents carry ("PIM(4)", "CIOQ(S=2,wrr)", ...) to the switch
 * each denotes, in the spirit of booksim's Allocator::NewAllocator. The
 * sweep specs, both `--arch` flags, the hot-path bench and the tests
 * build their switches here, so each architecture has one spelling.
 *
 * FIFO(window=W,rounds=R) is FifoSwitch with lookahead W >= 2;
 * OutputQueued is the perfect fabric with Fifo service. PIM(inf) runs
 * PIM to completion, and PIM(K,k=C) grants C >= 2 cells per output
 * behind the Strict output stage (the replicated fabric). Greedy is the
 * random-order greedy maximal matcher, Maximum is Hopcroft-Karp, and
 * CIOQ(S=s,strict|wrr) runs Greedy at crossbar speedup s. The suffixes
 * follow in this order: `+warm` (iSLIP, Greedy) and `-pipelined` (no
 * output stage). Only canonical spellings parse: a number has no sign,
 * space or leading zero. FIFO, PIM, Greedy and CIOQ draw on the seed.
 */
#ifndef AN2_HARNESS_ARCH_H
#define AN2_HARNESS_ARCH_H

#include <initializer_list>
#include <string>
#include <vector>

#include "an2/harness/sweep.h"

namespace an2::harness {

/** The grammar in one line, for usage text and error messages. */
inline constexpr const char* kArchGrammar =
    "FIFO, FIFO(window=W,rounds=R), OutputQueued, PIM(K|inf), "
    "PIM(K|inf,k=C), iSLIP(K), Greedy, Maximum or CIOQ(S=1..4,strict|wrr), "
    "then +warm and -pipelined as they apply";

/**
 * The architecture `name` denotes, named `name`; a CIOQ name also sets
 * the speedup and service. Throws UsageError quoting `name` when it is
 * not in the grammar.
 */
ArchSpec archByName(const std::string& name);

/** archByName() over a list, in order: an experiment's arch axis. */
std::vector<ArchSpec> archsByName(std::initializer_list<const char*> names);

}  // namespace an2::harness

#endif  // AN2_HARNESS_ARCH_H
