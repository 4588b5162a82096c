#include "an2/matching/statistical.h"

#include <algorithm>
#include <cmath>

namespace an2 {

double
statisticalOneRoundFraction(int units)
{
    double miss = std::pow((units - 1.0) / units, units);  // -> 1/e
    return 1.0 - miss;
}

double
statisticalTwoRoundFraction(int units)
{
    double miss = std::pow((units - 1.0) / units, units);
    return (1.0 - miss) * (1.0 + miss * miss);
}

namespace {

/** CDF of Binomial(n_units, 1/X) over m = 0, 1, ... (cut once the tail
    is negligible); {1} for n_units <= 0. pmf(m) is computed
    iteratively. */
std::vector<double>
binomialCdf(int X, int n_units)
{
    std::vector<double> cdf;
    if (n_units <= 0) {
        cdf.push_back(1.0);  // always zero virtual grants
        return cdf;
    }
    double q = (X - 1.0) / X;
    double pmf = std::pow(q, n_units);  // m = 0
    double acc = pmf;
    cdf.push_back(acc);
    for (int m = 0; m < n_units; ++m) {
        pmf *= static_cast<double>(n_units - m) /
               (static_cast<double>(m + 1) * (X - 1.0));
        acc += pmf;
        cdf.push_back(std::min(acc, 1.0));
        if (1.0 - acc < 1e-15)
            break;  // negligible tail
    }
    cdf.back() = 1.0;
    return cdf;
}

/** CDF of a pair's virtual-grant count given a grant, for a pair with
    `units` > 0 allocated; empty for an unallocated pair. Per Appendix C
    the m >= 1 tail of Binomial(units, 1/X) is rescaled by X/units, with
    the remainder at m = 0. */
std::vector<double>
conditionalCdf(int X, int units)
{
    if (units == 0)
        return {};
    auto uncond = binomialCdf(X, units);
    // cond(m) = pmf(m) * X/units for m >= 1; cond(0) = 1 - rest.
    std::vector<double> cond(uncond.size());
    double scale = static_cast<double>(X) / units;
    double tail = 0.0;
    for (size_t m = uncond.size(); m-- > 1;) {
        double pmf = uncond[m] - uncond[m - 1];
        tail += pmf * scale;
    }
    cond[0] = std::max(0.0, 1.0 - tail);
    double acc = cond[0];
    for (size_t m = 1; m < uncond.size(); ++m) {
        double pmf = uncond[m] - uncond[m - 1];
        acc += pmf * scale;
        cond[m] = std::min(acc, 1.0);
    }
    cond.back() = 1.0;
    return cond;
}

}  // namespace

StatisticalMatcher::StatisticalMatcher(Matrix<int> allocation,
                                       const StatisticalConfig& config)
    : alloc_(std::move(allocation)), config_(config), rng_(config.seed)
{
    AN2_REQUIRE(config_.units >= 2, "need at least two bandwidth units");
    AN2_REQUIRE(config_.rounds >= 1 && config_.rounds <= 2,
                "rounds must be 1 or 2");
    AN2_REQUIRE(alloc_.rows() > 0 && alloc_.rows() == alloc_.cols(),
                "allocation matrix must be square and non-empty");
    buildTables();
    // Each output grants at most once per round, so no input holds more
    // than n grants and the weights never exceed n + 1 entries.
    const auto n = static_cast<size_t>(alloc_.rows());
    grants_to_.resize(n);
    for (auto& grants : grants_to_)
        grants.reserve(n);
    weights_.reserve(n + 1);
}

std::string
StatisticalMatcher::name() const
{
    return "Statistical(" + std::to_string(config_.rounds) + "-round,X=" +
           std::to_string(config_.units) + ")";
}

void
StatisticalMatcher::setAllocation(PortId i, PortId j, int alloc_units)
{
    AN2_REQUIRE(alloc_units >= 0, "allocation must be non-negative");
    // Validate before mutating so a rejected update leaves the matcher
    // in its previous, consistent state.
    int delta = alloc_units - alloc_.at(i, j);
    AN2_REQUIRE(alloc_.rowSum(i) + delta <= config_.units,
                "input " << i << " would be over-allocated");
    AN2_REQUIRE(alloc_.colSum(j) + delta <= config_.units,
                "output " << j << " would be over-allocated");
    alloc_.at(i, j) = alloc_units;
    // Only the two ports of the pair are affected: its own conditional
    // CDF, input i's slack and column j's lottery.
    const int X = config_.units;
    cond_cdf_[pairIndex(i, j)] = conditionalCdf(X, alloc_units);
    imag_cdf_[static_cast<size_t>(i)] = binomialCdf(X, X - alloc_.rowSum(i));
    rebuildColumn(j);
}

void
StatisticalMatcher::buildTables()
{
    const int n = alloc_.rows();
    const int X = config_.units;
    for (int i = 0; i < n; ++i) {
        AN2_REQUIRE(alloc_.rowSum(i) <= X,
                    "input " << i << " over-allocated: " << alloc_.rowSum(i)
                             << " > " << X);
    }
    for (int j = 0; j < n; ++j) {
        AN2_REQUIRE(alloc_.colSum(j) <= X,
                    "output " << j << " over-allocated: " << alloc_.colSum(j)
                              << " > " << X);
    }
    col_cum_.assign(static_cast<size_t>(n),
                    std::vector<int>(static_cast<size_t>(n)));
    for (int j = 0; j < n; ++j)
        rebuildColumn(j);
    cond_cdf_.resize(static_cast<size_t>(n) * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            cond_cdf_[pairIndex(i, j)] = conditionalCdf(X, alloc_.at(i, j));
    imag_cdf_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        imag_cdf_[static_cast<size_t>(i)] =
            binomialCdf(X, X - alloc_.rowSum(i));
}

void
StatisticalMatcher::rebuildColumn(PortId j)
{
    // Per-output cumulative allocations for the grant lottery.
    auto& cum = col_cum_[static_cast<size_t>(j)];
    int acc = 0;
    for (int i = 0; i < alloc_.rows(); ++i) {
        acc += alloc_.at(i, j);
        cum[static_cast<size_t>(i)] = acc;
    }
}

namespace {

/** Sample an index from a CDF table with one uniform draw. */
int
sampleCdf(const std::vector<double>& cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end())
        --it;
    return static_cast<int>(it - cdf.begin());
}

}  // namespace

int
StatisticalMatcher::sampleVirtualGrants(PortId i, PortId j)
{
    const auto& cdf = cond_cdf_[pairIndex(i, j)];
    AN2_ASSERT(!cdf.empty(), "virtual-grant table missing for allocated pair");
    return sampleCdf(cdf, rng_.nextDouble());
}

int
StatisticalMatcher::sampleImaginaryGrants(PortId i)
{
    return sampleCdf(imag_cdf_[static_cast<size_t>(i)], rng_.nextDouble());
}

void
StatisticalMatcher::runRound(Matching& out)
{
    const int n = alloc_.rows();
    const int X = config_.units;

    // Grant phase: each output picks input i with probability X[i][j]/X;
    // residual probability is a grant to the imaginary input (no grant).
    for (auto& grants : grants_to_)
        grants.clear();
    for (PortId j = 0; j < n; ++j) {
        const auto& cum = col_cum_[static_cast<size_t>(j)];
        int total = cum.back();
        if (total == 0)
            continue;
        auto ticket = static_cast<int>(rng_.nextBelow(
            static_cast<uint64_t>(X)));
        if (ticket >= total)
            continue;  // imaginary input
        auto it = std::upper_bound(cum.begin(), cum.end(), ticket);
        grants_to_[static_cast<size_t>(it - cum.begin())].push_back(j);
    }

    // Accept phase: weight each granting output by its virtual-grant
    // count; unreserved input bandwidth competes as an imaginary output.
    // Every draw is taken whether or not the accepted pair conflicts.
    for (PortId i = 0; i < n; ++i) {
        const auto& grants = grants_to_[static_cast<size_t>(i)];
        int imag = sampleImaginaryGrants(i);
        if (grants.empty() && imag == 0)
            continue;
        weights_.clear();
        int total = imag;
        for (PortId j : grants) {
            int m = sampleVirtualGrants(i, j);
            weights_.push_back(m);
            total += m;
        }
        weights_.push_back(imag);
        if (total == 0)
            continue;  // no virtual grants at all: unmatched
        size_t pick = rng_.pickWeighted(weights_);
        if (pick == grants.size())
            continue;  // accepted the imaginary output; stays unmatched
        PortId j = grants[pick];
        if (!out.isInputMatched(i) && !out.isOutputSaturated(j))
            out.add(i, j);
    }
}

void
StatisticalMatcher::scheduleInto(Matching& out)
{
    out.reset(alloc_.rows(), alloc_.cols());
    for (int r = 0; r < config_.rounds; ++r)
        runRound(out);
}

Matching
StatisticalMatcher::matchAllocated()
{
    Matching m(alloc_.rows());
    scheduleInto(m);
    return m;
}

void
StatisticalMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    AN2_REQUIRE(req.numInputs() == alloc_.rows() &&
                    req.numOutputs() == alloc_.cols(),
                "request matrix size does not match allocation");
    scheduleInto(out);
    for (PortId i = 0; i < req.numInputs(); ++i) {
        PortId j = out.outputOf(i);
        if (j != kNoPort && !req.has(i, j))
            out.removeInput(i);
    }
}

}  // namespace an2
