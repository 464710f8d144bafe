// Workload generators reproducing the paper's setup (§4.3.3): range queries
// of a fixed size whose position is uniform in the attribute interval
// [0, 1000], issued by random peers.
#pragma once

#include <vector>

#include "kautz/partition_tree.h"
#include "util/rng.h"

namespace armada::sim {

/// Single-attribute range query [lo, hi].
struct RangeQuery {
  double lo = 0.0;
  double hi = 0.0;
};

/// Uniformly positioned fixed-size range queries within `domain`.
class RangeWorkload {
 public:
  RangeWorkload(kautz::Interval domain, double query_size, Rng rng);

  RangeQuery next();

 private:
  kautz::Interval domain_;
  double size_;
  Rng rng_;
};

/// Uniformly positioned fixed-size boxes within a multi-attribute domain.
class BoxWorkload {
 public:
  /// sizes[i] is the query extent along attribute i.
  BoxWorkload(kautz::Box domain, std::vector<double> sizes, Rng rng);

  kautz::Box next();

 private:
  kautz::Box domain_;
  std::vector<double> sizes_;
  Rng rng_;
};

/// Uniform attribute values for populating stores.
class UniformPoints {
 public:
  UniformPoints(kautz::Box domain, Rng rng);

  std::vector<double> next();

 private:
  kautz::Box domain_;
  Rng rng_;
};

/// Zipf-distributed values over `bins` equal slices of the domain: bin i
/// has probability proportional to 1/(i+1)^exponent. Models skewed
/// attribute popularity (used by the load-balance bench).
class ZipfValues {
 public:
  ZipfValues(kautz::Interval domain, std::size_t bins, double exponent,
             Rng rng);

  double next();

 private:
  kautz::Interval domain_;
  std::vector<double> cdf_;
  Rng rng_;
};

/// Mixture-of-Gaussians values clamped to the domain: real-world attributes
/// often cluster (e.g. machine memory sizes).
class ClusteredValues {
 public:
  struct Cluster {
    double center = 0.0;
    double stddev = 1.0;
    double weight = 1.0;
  };

  ClusteredValues(kautz::Interval domain, std::vector<Cluster> clusters,
                  Rng rng);

  double next();

 private:
  kautz::Interval domain_;
  std::vector<Cluster> clusters_;
  std::vector<double> cdf_;
  Rng rng_;
};

}  // namespace armada::sim
