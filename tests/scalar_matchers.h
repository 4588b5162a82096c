/**
 * @file
 * Scalar reference cores of PIM, iSLIP and serial greedy matching, kept
 * as test oracles for the library's word-parallel cores.
 *
 * Each class is the plain O(N^2)-per-round form of its algorithm: it
 * walks ports in ascending order, tests requests with has(), and keeps
 * free ports in the Matching itself. The library cores
 * (an2/matching/{pim,islip,serial_greedy}) compute the same decisions
 * over row/column bitmasks, so for equal seeds and configurations both
 * produce identical matchings, consume the same PRNG draws, rotate the
 * same pointers, make the same warm-start decisions and report the same
 * obs probes (matchIteration events and warm-start counters). The
 * differential tests hold them to that.
 */
#ifndef AN2_TESTS_SCALAR_MATCHERS_H
#define AN2_TESTS_SCALAR_MATCHERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "an2/base/rng.h"
#include "an2/matching/matcher.h"
#include "an2/matching/pim.h"
#include "an2/matching/warm_start.h"

namespace an2 {

/** PIM's scalar core: the oracle for PimMatcher. */
class ScalarPimMatcher final : public Matcher
{
  public:
    explicit ScalarPimMatcher(const PimConfig& config = PimConfig{});

    Matching match(const RequestMatrix& req) override;
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override { return "ScalarPIM"; }
    void reset() override { accept_ptr_.clear(); }

  private:
    /** One request/grant/accept round; returns matches added. `it` is
        the iteration index reported to the obs probe layer. */
    int runIteration(const RequestMatrix& req, Matching& m, int it);

    PimConfig config_;
    Xoshiro256 rng_;
    std::vector<int> accept_ptr_;  ///< per-input round-robin pointer
    int accept_outputs_ = 0;       ///< outputs the pointers range over
};

/** iSLIP's scalar core, cold and warm: the oracle for IslipMatcher. */
class ScalarIslipMatcher final : public Matcher
{
  public:
    explicit ScalarIslipMatcher(int iterations = 4,
                                WarmStart warm = WarmStart::Off);

    Matching match(const RequestMatrix& req) override;
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override { return "ScalarIslip"; }
    void reset() override;

  private:
    /** One grant/accept round; returns matches added. */
    int runIteration(const RequestMatrix& req, Matching& m, int it);

    /** The WarmStart::On slot: replay, or seed + one repair pass. */
    void matchWarm(const RequestMatrix& req, Matching& out);

    int iterations_;
    WarmStart warm_;
    WarmStartState warm_state_;
    std::vector<int> grant_ptr_;   ///< per-output rotating grant pointer
    std::vector<int> accept_ptr_;  ///< per-input rotating accept pointer
};

/** Serial greedy's scalar core, cold and warm: the oracle for
    SerialGreedyMatcher. */
class ScalarGreedyMatcher final : public Matcher
{
  public:
    explicit ScalarGreedyMatcher(bool randomize = true, uint64_t seed = 1,
                                 WarmStart warm = WarmStart::Off);

    Matching match(const RequestMatrix& req) override;
    void matchInto(const RequestMatrix& req, Matching& out) override;
    std::string name() const override { return "ScalarGreedy"; }
    void reset() override { warm_state_.invalidate(); }

  private:
    bool randomize_;
    WarmStart warm_;
    WarmStartState warm_state_;
    Xoshiro256 rng_;
    std::vector<PortId> input_order_;
};

}  // namespace an2

#endif  // AN2_TESTS_SCALAR_MATCHERS_H
