// Streaming statistics and histograms for simulation metrics.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace armada {

/// Online accumulator: count, running mean, sum, min, max.
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Mean, or `fallback` when no samples were added — for metrics that are
  /// only defined on a subset of queries (e.g. IncreRatio needs >1 dest
  /// peer) and may legitimately be empty on small workloads.
  double mean_or(double fallback) const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile accumulator: stores every sample and selects on query.
/// Bench workloads add at most a few hundred thousand samples, so exact
/// storage beats a reservoir's approximation error.
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); }

  std::uint64_t count() const { return samples_.size(); }

  /// Nearest-rank percentile: the smallest sample such that at least `q`
  /// of the mass is <= it. Requires q in (0, 1] and count() > 0.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

 private:
  /// Every sample; a query's selection reorders them, which changes no
  /// order statistic.
  mutable std::vector<double> samples_;
};

/// Integer-bucket histogram (exact counts per value), suitable for hop-count
/// and degree distributions.
class Histogram {
 public:
  void add(std::int64_t value, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::int64_t max() const;
  double mean() const;

  const std::map<std::int64_t, std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::map<std::int64_t, std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Gini coefficient of a non-negative load vector: 0 = perfectly even,
/// -> 1 = concentrated on one element. Used by the load-balance bench.
double gini(std::vector<double> loads);

}  // namespace armada
