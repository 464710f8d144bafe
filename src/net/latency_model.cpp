#include "net/latency_model.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"

namespace armada::net {

namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draw in [0, 1) for an unordered link {u, v}.
double link_u01(std::uint64_t seed, NodeId u, NodeId v) {
  const std::uint64_t a = std::min(u, v);
  const std::uint64_t b = std::max(u, v);
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Time ConstantHop::link_latency(NodeId u, NodeId v) const {
  ARMADA_CHECK(u != v);
  return kCost;
}

Time UniformJitter::link_latency(NodeId u, NodeId v) const {
  ARMADA_CHECK(u != v);
  return kLo + (kHi - kLo) * link_u01(seed_, u, v);
}

std::uint32_t TransitStub::cluster_of(NodeId u) const {
  return static_cast<std::uint32_t>(mix64(seed_ ^ u) % kClusters);
}

Time TransitStub::link_latency(NodeId u, NodeId v) const {
  ARMADA_CHECK(u != v);
  return cluster_of(u) == cluster_of(v) ? kIntra : kInter;
}

Time RttMatrix::link_latency(NodeId u, NodeId v) const {
  ARMADA_CHECK(u != v);
  // Piecewise-linear inverse CDF in units of the median, following the shape
  // of the King dataset: a compact body below ~2x the median and a long tail
  // stretching past 20x (trans-continental / congested paths).
  static constexpr struct {
    double q;
    double x;  // latency / median at quantile q
  } kCdf[] = {
      {0.00, 0.10}, {0.10, 0.40}, {0.25, 0.65}, {0.50, 1.00},
      {0.75, 1.60}, {0.90, 2.80}, {0.99, 8.00}, {1.00, 25.0},
  };
  const double q = link_u01(seed_, u, v);
  double x = kCdf[0].x;
  for (std::size_t i = 1; i < std::size(kCdf); ++i) {
    if (q <= kCdf[i].q) {
      const double t = (q - kCdf[i - 1].q) / (kCdf[i].q - kCdf[i - 1].q);
      x = kCdf[i - 1].x + t * (kCdf[i].x - kCdf[i - 1].x);
      break;
    }
  }
  return kMedian * x;
}

}  // namespace armada::net
