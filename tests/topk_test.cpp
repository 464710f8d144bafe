#include <gtest/gtest.h>

#include <algorithm>

#include "armada/armada.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/check.h"
#include "util/rng.h"

namespace armada::core {
namespace {

using testsupport::make_multi_index;
using testsupport::make_single_index;
using testsupport::publish_uniform_values;

class TopKTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKTest, MatchesBruteForceTopK) {
  const std::uint64_t seed = GetParam();
  auto fx = make_single_index(150, seed);
  const std::vector<double> values =
      publish_uniform_values(fx->index, 500, seed + 5);
  Rng rng(seed + 6);

  for (int trial = 0; trial < 30; ++trial) {
    const double lo = rng.next_double(0.0, 800.0);
    const double hi = lo + rng.next_double(0.0, 200.0);
    const std::size_t k = 1 + rng.next_index(20);
    const auto r = fx->index.top_k(fx->net.random_peer(), lo, hi, k);

    // Brute force: handles of in-range values, by descending value.
    std::vector<std::pair<double, std::uint64_t>> in_range;
    for (std::uint64_t h = 0; h < values.size(); ++h) {
      if (values[h] >= lo && values[h] <= hi) {
        in_range.emplace_back(values[h], h);
      }
    }
    std::sort(in_range.begin(), in_range.end(), [](auto a, auto b) {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;
    });
    in_range.resize(std::min(in_range.size(), k));
    std::vector<std::uint64_t> expected;
    for (const auto& [v, h] : in_range) {
      expected.push_back(h);
    }
    EXPECT_EQ(r.handles, expected) << "k=" << k << " [" << lo << "," << hi
                                   << "]";
    EXPECT_EQ(r.stats.results, expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKTest, ::testing::Values(1, 2, 3, 4));

TEST(TopK, StopsEarlyForSmallK) {
  auto fx = make_single_index(400, 9);
  publish_uniform_values(fx->index, 4000, 11);
  // k=3 over the whole domain should only touch the top few zones, while a
  // full range query touches every peer.
  const auto r = fx->index.top_k(fx->net.random_peer(), 0.0, 1000.0, 3);
  EXPECT_EQ(r.handles.size(), 3u);
  EXPECT_LT(r.stats.dest_peers, fx->net.num_peers() / 10);
}

TEST(TopK, EmptyRangeYieldsNothing) {
  auto fx = make_single_index(100, 13);
  fx->index.publish(10.0);
  const auto r = fx->index.top_k(fx->net.random_peer(), 500.0, 600.0, 5);
  EXPECT_TRUE(r.handles.empty());
}

TEST(TopK, FewerThanKResultsReturnsAll) {
  auto fx = make_single_index(100, 15);
  const auto h0 = fx->index.publish(100.0);
  const auto h1 = fx->index.publish(200.0);
  const auto r = fx->index.top_k(fx->net.random_peer(), 0.0, 1000.0, 10);
  EXPECT_EQ(r.handles, (std::vector<std::uint64_t>{h1, h0}));
}

TEST(TopK, RequiresSingleAttribute) {
  auto fx = make_multi_index(50, 17, kautz::Box{{0.0, 1.0}, {0.0, 1.0}});
  EXPECT_THROW(fx->index.top_k(fx->net.random_peer(), 0.0, 1.0, 3),
               CheckError);
}

}  // namespace
}  // namespace armada::core
