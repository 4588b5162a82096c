#include "an2/base/stats.h"

#include <algorithm>
#include <cmath>

namespace an2 {

void
RunningStats::add(double x)
{
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats& other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double delta = other.mean_ - mean_;
    int64_t total = count_ + other.count_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) /
                           static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.count_) /
             static_cast<double>(total);
    count_ = total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
jainFairnessIndex(const std::vector<double>& allocations)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double x : allocations) {
        sum += x;
        sum_sq += x * x;
    }
    if (allocations.empty() || sum_sq == 0.0)
        return 1.0;
    return sum * sum /
           (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace an2
