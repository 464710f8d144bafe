#include "armada/armada.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>

#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/check.h"

namespace armada::core {
namespace {

using fissione::PeerId;
using kautz::Box;
using testsupport::make_multi_index;
using testsupport::make_single_index;
using testsupport::publish_uniform_points;
using testsupport::publish_uniform_values;

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<PeerId> sorted(std::vector<PeerId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<double> values_of(std::span<const double> attributes) {
  return {attributes.begin(), attributes.end()};
}

class PiraExactnessTest : public ::testing::TestWithParam<std::uint64_t> {};

// Golden invariant (a): PIRA reaches exactly the peers in charge of the
// query region, and returns exactly the objects a global scan finds.
TEST_P(PiraExactnessTest, DestinationsAndResultsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  auto fx = make_single_index(150 + 37 * (seed % 5), seed);
  publish_uniform_values(fx->index, 600, seed * 31 + 7);
  Rng rng(seed * 131 + 7);

  for (int trial = 0; trial < 60; ++trial) {
    const auto q = testsupport::random_subrange(rng, testsupport::kPaperDomain,
                                                400.0);
    const PeerId issuer = fx->random_issuer(rng);

    const RangeQueryResult r = fx->index.range_query(issuer, q.lo, q.hi);

    // Destinations are exactly the peers whose PeerID prefixes the region.
    const auto expected = testsupport::expected_destinations(
        fx->net, fx->index.naming_tree().region_for(q.lo, q.hi));
    EXPECT_EQ(sorted(r.destinations), sorted(expected));
    EXPECT_EQ(r.stats.dest_peers, expected.size());

    // No duplicate deliveries.
    std::unordered_set<PeerId> unique(r.destinations.begin(),
                                      r.destinations.end());
    EXPECT_EQ(unique.size(), r.destinations.size());

    // Results equal a global scan.
    EXPECT_EQ(sorted(r.matches), fx->index.scan_matches(Box{{q.lo, q.hi}}));

    // Delay bound: at most the issuer's PeerID length (paper §4.3.2).
    EXPECT_LE(r.stats.delay,
              static_cast<double>(fx->net.peer(issuer).peer_id.length()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PiraExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Pira, FullDomainQueryReachesEveryPeer) {
  auto fx = make_single_index(120, 21);
  const RangeQueryResult r =
      fx->index.range_query(fx->net.alive_peers().front(), 0.0, 1000.0);
  EXPECT_EQ(r.stats.dest_peers, fx->net.num_peers());
  // Delay stays bounded by the issuer's PeerID length even for the full
  // space — the delay-bounded property that distinguishes Armada.
  EXPECT_LE(r.stats.delay,
            static_cast<double>(
                fx->net.peer(fx->net.alive_peers().front()).peer_id.length()));
}

TEST(Pira, PointQueryHitsSinglePeer) {
  auto fx = make_single_index(200, 22);
  const std::uint64_t h = fx->index.publish(123.456);
  const RangeQueryResult r =
      fx->index.range_query(fx->net.random_peer(), 123.456, 123.456);
  EXPECT_EQ(r.stats.dest_peers, 1u);
  EXPECT_EQ(r.matches, std::vector<std::uint64_t>{h});
}

TEST(Pira, IssuerInsideRangeIsAlsoDestination) {
  auto fx = make_single_index(100, 23);
  // Find a peer and query a range that surely covers its zone: use the
  // whole domain, then check the issuer is among destinations at delay 0
  // for its own zone's subregion.
  const PeerId issuer = fx->net.random_peer();
  const RangeQueryResult r = fx->index.range_query(issuer, 0.0, 1000.0);
  EXPECT_NE(std::find(r.destinations.begin(), r.destinations.end(), issuer),
            r.destinations.end());
}

TEST(Pira, EmptyRangeStillRoutesToOwner) {
  auto fx = make_single_index(150, 24);
  const RangeQueryResult r =
      fx->index.range_query(fx->net.random_peer(), 500.0, 500.0);
  EXPECT_EQ(r.stats.dest_peers, 1u);
  EXPECT_TRUE(r.matches.empty());
}

TEST(Pira, MessageCountSanity) {
  auto fx = make_single_index(400, 25);
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const double lo = rng.next_double(0.0, 900.0);
    const RangeQueryResult r =
        fx->index.range_query(fx->net.random_peer(), lo, lo + 100.0);
    const double n = static_cast<double>(r.stats.dest_peers);
    const double max_len = 2.0 * std::log2(400.0);
    // Forwarding tree: at least n-1 edges beyond the up-to-3 class roots,
    // at most the analytic shape logN + 2n with generous slack.
    EXPECT_GE(static_cast<double>(r.stats.messages), n - 3.0);
    EXPECT_LE(static_cast<double>(r.stats.messages), 3.0 * max_len + 3.0 * n);
  }
}

class MiraExactnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MiraExactnessTest, DestinationsAndResultsMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  auto fx = make_multi_index(120 + 29 * (seed % 4), seed + 100,
                             Box{{0.0, 100.0}, {0.0, 100.0}});
  publish_uniform_points(fx->index, 500, seed * 17 + 3);
  Rng rng(seed * 23 + 5);

  for (int trial = 0; trial < 40; ++trial) {
    Box q(2);
    for (auto& iv : q) {
      iv.lo = rng.next_double(0.0, 80.0);
      iv.hi = iv.lo + rng.next_double(0.0, 100.0 - iv.lo);
    }
    const PeerId issuer = fx->random_issuer(rng);
    const RangeQueryResult r = fx->index.box_query(issuer, q);

    EXPECT_EQ(sorted(r.destinations),
              sorted(testsupport::expected_destinations(
                  fx->net, fx->index.naming_tree(), q)));
    EXPECT_EQ(sorted(r.matches), fx->index.scan_matches(q));

    std::unordered_set<PeerId> unique(r.destinations.begin(),
                                      r.destinations.end());
    EXPECT_EQ(unique.size(), r.destinations.size());

    EXPECT_LE(r.stats.delay,
              static_cast<double>(fx->net.peer(issuer).peer_id.length()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiraExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Mira, ThreeAttributesWork) {
  auto fx =
      make_multi_index(150, 30, Box{{0.0, 1.0}, {0.0, 10.0}, {-5.0, 5.0}});
  publish_uniform_points(fx->index, 400, 31);
  const Box q{{0.2, 0.7}, {2.0, 6.0}, {-1.0, 3.0}};
  const RangeQueryResult r = fx->index.box_query(fx->net.random_peer(), q);
  EXPECT_EQ(sorted(r.matches), fx->index.scan_matches(q));
  EXPECT_EQ(sorted(r.destinations),
            sorted(testsupport::expected_destinations(
                fx->net, fx->index.naming_tree(), q)));
}

TEST(Mira, NarrowBoxVisitsFewPeers) {
  // MIRA prunes inside the bounding region: a thin box in one dimension
  // should reach far fewer peers than the region <LowT, HighT> spans.
  auto fx = make_multi_index(500, 32, Box{{0.0, 1.0}, {0.0, 1.0}});
  const Box q{{0.0, 1.0}, {0.40, 0.42}};
  const RangeQueryResult r = fx->index.box_query(fx->net.random_peer(), q);
  EXPECT_LT(r.stats.dest_peers, fx->net.num_peers() / 2);
  EXPECT_EQ(sorted(r.destinations),
            sorted(testsupport::expected_destinations(
                fx->net, fx->index.naming_tree(), q)));
}

TEST(ArmadaIndex, PublishAttributesRoundTrip) {
  auto fx = make_single_index(50, 33, {0.0, 10.0});
  const auto h0 = fx->index.publish(1.5);
  const auto h1 = fx->index.publish(9.25);
  EXPECT_NE(h0, h1);
  EXPECT_EQ(values_of(fx->index.attributes(h0)), std::vector<double>{1.5});
  EXPECT_EQ(values_of(fx->index.attributes(h1)), std::vector<double>{9.25});
}

// The attribute column grows by reallocation; every handle must still read
// back its own point, and the global scan must still see every object.
TEST(ArmadaIndex, AttributeColumnKeepsEveryPointAcrossReallocations) {
  const Box domain{{0.0, 1.0}, {0.0, 10.0}, {-5.0, 5.0}};
  auto fx = make_multi_index(120, 38, domain);
  Rng rng(39);
  std::vector<std::vector<double>> points;
  for (std::uint64_t i = 0; i < 1200; ++i) {
    std::vector<double> p;
    for (const auto& iv : domain) {
      p.push_back(rng.next_double(iv.lo, iv.hi));
    }
    ASSERT_EQ(fx->index.publish(p), i);
    points.push_back(std::move(p));
  }
  for (std::uint64_t h = 0; h < points.size(); ++h) {
    ASSERT_EQ(values_of(fx->index.attributes(h)), points[h]) << "handle " << h;
  }
  EXPECT_THROW(fx->index.attributes(points.size()), CheckError);

  for (const Box& q : {Box{{0.2, 0.7}, {2.0, 6.0}, {-1.0, 3.0}},
                       Box{{0.0, 1.0}, {0.0, 10.0}, {-5.0, 5.0}},
                       Box{{0.5, 0.5}, {0.0, 10.0}, {-5.0, 5.0}},
                       Box{{0.9, 1.0}, {9.0, 10.0}, {0.0, 5.0}}}) {
    std::vector<std::uint64_t> brute;
    for (std::uint64_t h = 0; h < points.size(); ++h) {
      bool in = true;
      for (std::size_t i = 0; i < q.size(); ++i) {
        in = in && points[h][i] >= q[i].lo && points[h][i] <= q[i].hi;
      }
      if (in) {
        brute.push_back(h);
      }
    }
    EXPECT_EQ(fx->index.scan_matches(q), brute);
  }
}

// A point rejected for its dimension or range throws before anything is
// stored: the next valid publish takes the next handle and reads back.
TEST(ArmadaIndex, RejectedPublishLeavesColumnAndStoresUnchanged) {
  auto fx = make_multi_index(80, 40, Box{{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  const auto points = publish_uniform_points(fx->index, 10, 41);
  EXPECT_THROW(fx->index.publish({0.5, 0.5}), CheckError);
  EXPECT_THROW(fx->index.publish({0.5, 1.5, 0.5}), CheckError);
  EXPECT_EQ(fx->net.total_objects(), points.size());

  const std::vector<double> next{0.25, 0.5, 0.75};
  EXPECT_EQ(fx->index.publish(next), points.size());
  EXPECT_EQ(values_of(fx->index.attributes(points.size())), next);
  EXPECT_EQ(values_of(fx->index.attributes(points.size() - 1)),
            points.back());
  EXPECT_EQ(fx->net.total_objects(), points.size() + 1);
  EXPECT_EQ(fx->index.scan_matches(Box{{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}})
                .size(),
            points.size() + 1);
}

TEST(ArmadaIndex, RejectsMismatchedDimensions) {
  auto fx = make_multi_index(50, 34, Box{{0.0, 1.0}, {0.0, 1.0}});
  EXPECT_THROW(fx->index.publish(0.5), CheckError);
  EXPECT_THROW(fx->index.box_query(fx->net.random_peer(), Box{{0.0, 1.0}}),
               CheckError);
  EXPECT_THROW(fx->index.range_query(fx->net.random_peer(), 0.0, 1.0),
               CheckError);
}

TEST(ArmadaIndex, QueriesSurviveChurn) {
  auto fx = make_single_index(200, 35);
  publish_uniform_values(fx->index, 500, 36);
  Rng rng(37);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 10; ++i) {
      fx->net.join();
      fx->net.leave(fx->random_issuer(rng));
    }
    const double lo = rng.next_double(0.0, 900.0);
    const RangeQueryResult r =
        fx->index.range_query(fx->net.random_peer(), lo, lo + 100.0);
    EXPECT_EQ(sorted(r.matches),
              fx->index.scan_matches(Box{{lo, lo + 100.0}}));
  }
}

}  // namespace
}  // namespace armada::core
