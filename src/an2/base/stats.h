/**
 * @file
 * Statistics collection: running moments, a log-linear histogram with
 * quantiles, and the fairness index used by the §5 experiments.
 */
#ifndef AN2_BASE_STATS_H
#define AN2_BASE_STATS_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace an2 {

/**
 * Single-pass running moments (Welford's algorithm): count, mean,
 * variance, min, max. Numerically stable for long simulations.
 */
class RunningStats
{
  public:
    /** Record one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats& other);

    /** Number of samples recorded. */
    int64_t count() const { return count_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    int64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Log-linear (HDR-style) histogram of non-negative integer samples, used
 * for every delay-in-slots distribution in the library.
 *
 * Values below 2^(kSubBits+1) = 64 land in exact unit bins; above that,
 * each power-of-two range is split into kSubBuckets equal sub-buckets, so
 * the relative quantization error is below 1/kSubBuckets (~3%) at every
 * scale. All bins are preallocated in the constructor: add() touches one
 * counter and never allocates, which lets the slot loop keep delay
 * tracking attached under the zero-alloc test.
 *
 * Quantiles return the *lower bound* of the bin holding the requested
 * rank: an integer, deterministic across platforms, so exported
 * p50/p99/p999 values are byte-stable in JSON.
 */
class LogHistogram
{
  public:
    /** Sub-bucket resolution: 2^5 = 32 buckets per power of two. */
    static constexpr int kSubBits = 5;
    static constexpr int64_t kSubBuckets = int64_t{1} << kSubBits;

    /** Values at or above 2^kValueBits clamp into the last bin (a delay
        of 2^34 slots is ~3 months of simulated time at 424 ns/slot). */
    static constexpr int kValueBits = 34;

    /** Total bins: the exact range plus kSubBuckets per extra octave. */
    static constexpr size_t kBins =
        static_cast<size_t>(kSubBuckets) +
        static_cast<size_t>(kValueBits - kSubBits) *
            static_cast<size_t>(kSubBuckets);

    LogHistogram() : bins_(kBins, 0) {}

    /** Bin index for `v` (negatives clamp to 0, huge values to last). */
    static size_t binOf(int64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<size_t>(std::max<int64_t>(v, 0));
        // msb >= kSubBits here; shifting by (msb - kSubBits) renormalizes
        // v into [kSubBuckets, 2*kSubBuckets).
        int msb = 63 - std::countl_zero(static_cast<uint64_t>(v));
        int shift = msb - kSubBits;
        int64_t sub = v >> shift;
        size_t bin = static_cast<size_t>(shift + 1) *
                         static_cast<size_t>(kSubBuckets) +
                     static_cast<size_t>(sub - kSubBuckets);
        return std::min(bin, kBins - 1);
    }

    /** Smallest value mapping into bin `b` (the quantile estimate). */
    static int64_t binLowerBound(size_t b)
    {
        if (b < static_cast<size_t>(kSubBuckets))
            return static_cast<int64_t>(b);
        int shift = static_cast<int>(b >> kSubBits) - 1;
        int64_t sub =
            kSubBuckets + static_cast<int64_t>(b & (kSubBuckets - 1));
        return sub << shift;
    }

    void add(int64_t v)
    {
        ++bins_[binOf(v)];
        ++count_;
        sum_ += std::max<int64_t>(v, 0);
        max_ = std::max(max_, v);
    }

    int64_t count() const { return count_; }
    int64_t sum() const { return sum_; }
    int64_t max() const { return max_; }

    /** Mean of the exact samples (not the binned estimate); 0 if empty. */
    double mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /**
     * Value at quantile `q` in [0, 1]: the lower bound of the bin that
     * contains the ceil(q * count)-th smallest sample (rank clamps to at
     * least 1). Returns 0 when the histogram is empty.
     */
    int64_t quantile(double q) const
    {
        if (count_ == 0)
            return 0;
        int64_t rank = static_cast<int64_t>(
            static_cast<double>(count_) * q + 0.9999999999);
        rank = std::clamp<int64_t>(rank, 1, count_);
        int64_t seen = 0;
        for (size_t b = 0; b < kBins; ++b) {
            seen += bins_[b];
            if (seen >= rank)
                return binLowerBound(b);
        }
        return binLowerBound(kBins - 1);
    }

    /** Add every sample of `other` into this histogram. */
    void merge(const LogHistogram& other)
    {
        for (size_t b = 0; b < kBins; ++b)
            bins_[b] += other.bins_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        max_ = std::max(max_, other.max_);
    }

    void reset()
    {
        std::fill(bins_.begin(), bins_.end(), 0);
        count_ = 0;
        sum_ = 0;
        max_ = 0;
    }

    const std::vector<int64_t>& bins() const { return bins_; }

  private:
    std::vector<int64_t> bins_;
    int64_t count_ = 0;
    int64_t sum_ = 0;
    int64_t max_ = 0;
};


/**
 * Jain's fairness index over per-entity allocations:
 * (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair; 1/n = maximally unfair.
 * Returns 1.0 for empty or all-zero input.
 */
double jainFairnessIndex(const std::vector<double>& allocations);

}  // namespace an2

#endif  // AN2_BASE_STATS_H
