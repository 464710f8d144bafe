#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace armada {

void OnlineStats::add(double x) {
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::mean() const {
  ARMADA_CHECK(count_ > 0);
  return mean_;
}

double OnlineStats::mean_or(double fallback) const {
  return count_ > 0 ? mean_ : fallback;
}

double OnlineStats::min() const {
  ARMADA_CHECK(count_ > 0);
  return min_;
}

double OnlineStats::max() const {
  ARMADA_CHECK(count_ > 0);
  return max_;
}

double Percentiles::percentile(double q) const {
  ARMADA_CHECK(q > 0.0 && q <= 1.0);
  ARMADA_CHECK(!samples_.empty());
  const double n = static_cast<double>(samples_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(rank, samples_.size());
  // ceil(q * n) can overshoot by one when q * n lands one ulp above an
  // integer (e.g. 0.07 * 100); nearest-rank is the smallest k with k/n >= q,
  // so test the previous rank with the division (not the rounded product).
  if (rank > 1 && static_cast<double>(rank - 1) / n >= q) {
    --rank;
  }
  const std::size_t idx = rank - 1;
  std::nth_element(samples_.begin(),
                   samples_.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples_.end());
  return samples_[idx];
}

void Histogram::add(std::int64_t value, std::uint64_t weight) {
  buckets_[value] += weight;
  total_ += weight;
}

std::int64_t Histogram::max() const {
  ARMADA_CHECK(total_ > 0);
  return buckets_.rbegin()->first;
}

double Histogram::mean() const {
  ARMADA_CHECK(total_ > 0);
  double acc = 0.0;
  for (const auto& [value, count] : buckets_) {
    acc += static_cast<double>(value) * static_cast<double>(count);
  }
  return acc / static_cast<double>(total_);
}

double gini(std::vector<double> loads) {
  ARMADA_CHECK(!loads.empty());
  std::sort(loads.begin(), loads.end());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    ARMADA_CHECK(loads[i] >= 0.0);
    weighted += static_cast<double>(i + 1) * loads[i];
    total += loads[i];
  }
  ARMADA_CHECK_MSG(total > 0.0, "gini of an all-zero load vector");
  const double n = static_cast<double>(loads.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

}  // namespace armada
