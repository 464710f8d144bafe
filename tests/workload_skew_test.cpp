#include <gtest/gtest.h>

#include <algorithm>

#include "fissione/types.h"
#include "sim/workload.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/check.h"
#include "util/stats.h"

namespace armada::sim {
namespace {

TEST(ZipfValues, StaysInDomainAndSkews) {
  ZipfValues gen({0.0, 1000.0}, 100, 1.2, Rng(3));
  const int n = 20000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    const double v = gen.next();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
    if (v < 100.0) {
      ++low;
    }
  }
  // With exponent 1.2, far more than 10% of the mass sits in the first
  // decile of the domain.
  EXPECT_GT(low, n / 4);
}

TEST(ZipfValues, ZeroExponentIsUniform) {
  ZipfValues gen({0.0, 1.0}, 50, 0.0, Rng(5));
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(gen.next());
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(ClusteredValues, ConcentratesAroundCenters) {
  ClusteredValues gen({0.0, 1000.0}, {{200.0, 5.0, 1.0}, {800.0, 5.0, 1.0}},
                      Rng(7));
  int near_centers = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double v = gen.next();
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1000.0);
    if (std::abs(v - 200.0) < 20.0 || std::abs(v - 800.0) < 20.0) {
      ++near_centers;
    }
  }
  EXPECT_GT(near_centers, n * 9 / 10);
}

TEST(ClusteredValues, RespectsWeights) {
  ClusteredValues gen({0.0, 1000.0}, {{200.0, 5.0, 3.0}, {800.0, 5.0, 1.0}},
                      Rng(9));
  int low = 0;
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    if (gen.next() < 500.0) {
      ++low;
    }
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.75, 0.03);
}

// The motivation for the online rebalancer (src/rebalance/): with
// rebalancing off, the peak per-peer service load strictly worsens as the
// Zipf exponent grows — skew concentrates queries on the peers owning the
// hot key ranges.
TEST(WorkloadSkew, PeakServiceLoadWorsensWithZipfExponent) {
  const auto peak_for = [](double s) {
    auto fx = testsupport::make_single_index(150, 29);
    testsupport::publish_uniform_values(fx->index, 500, 61);
    fissione::ServiceLoadMap load;
    fx->net.set_service_load(&load);

    ZipfValues zipf(testsupport::kPaperDomain, 150, s, Rng(43));
    Rng rng(87);
    for (int q = 0; q < 400; ++q) {
      const double c = zipf.next();
      fx->index.range_query(fx->random_issuer(rng), std::max(0.0, c - 10.0),
                            std::min(1000.0, c + 10.0));
    }
    std::uint64_t peak = 0;
    for (const auto& [p, count] : load) {
      peak = std::max(peak, count);
    }
    return peak;
  };

  const std::uint64_t p06 = peak_for(0.6);
  const std::uint64_t p10 = peak_for(1.0);
  const std::uint64_t p14 = peak_for(1.4);
  EXPECT_LT(p06, p10);
  EXPECT_LT(p10, p14);
}

TEST(Gini, KnownValues) {
  EXPECT_NEAR(gini({1.0, 1.0, 1.0, 1.0}), 0.0, 1e-12);
  // All load on one of four peers: gini = (n-1)/n = 0.75.
  EXPECT_NEAR(gini({0.0, 0.0, 0.0, 8.0}), 0.75, 1e-12);
  EXPECT_THROW(gini({0.0, 0.0}), CheckError);
  EXPECT_THROW(gini({}), CheckError);
}

TEST(Gini, MonotoneInConcentration) {
  EXPECT_LT(gini({2.0, 2.0, 2.0, 2.0}), gini({1.0, 1.0, 2.0, 4.0}));
  EXPECT_LT(gini({1.0, 1.0, 2.0, 4.0}), gini({0.0, 0.0, 1.0, 7.0}));
}

}  // namespace
}  // namespace armada::sim
