#include "support/frt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "armada/armada.h"
#include "armada/frt_search.h"
#include "support/test_networks.h"
#include "util/rng.h"

namespace armada::core {
namespace {

using fissione::FissioneNetwork;
using fissione::PeerId;
using kautz::KautzString;

TEST(ForwardRoutingTree, HeightEqualsPeerIdLength) {
  auto net = FissioneNetwork::build(100, 51);
  for (int i = 0; i < 10; ++i) {
    const PeerId p = net.random_peer();
    const ForwardRoutingTree frt(net, p);
    EXPECT_EQ(frt.height(), net.peer(p).peer_id.length());
    EXPECT_EQ(frt.level(0), std::vector<PeerId>{p});
  }
}

TEST(ForwardRoutingTree, LevelMembersAlignToSuffixes) {
  auto net = FissioneNetwork::build(150, 52);
  const PeerId p = net.random_peer();
  const KautzString& id = net.peer(p).peer_id;
  const ForwardRoutingTree frt(net, p);
  const std::size_t b = frt.height();
  for (std::size_t i = 1; i < b; ++i) {
    const KautzString suffix = id.suffix(b - i);
    for (PeerId q : frt.level(i)) {
      const KautzString& qid = net.peer(q).peer_id;
      // Peers in charge of the suffix region: prefixed by the suffix, or a
      // (shorter) prefix of it.
      EXPECT_TRUE(suffix.is_prefix_of(qid) || qid.is_prefix_of(suffix))
          << "level " << i << " peer " << qid.to_string() << " suffix "
          << suffix.to_string();
    }
  }
  // Last level: first symbol differs from the root id's last symbol.
  for (PeerId q : frt.level(b)) {
    EXPECT_NE(net.peer(q).peer_id.front(), id.back());
  }
}

TEST(ForwardRoutingTree, LevelsCoverAllPeers) {
  auto net = FissioneNetwork::build(120, 53);
  const PeerId p = net.random_peer();
  const ForwardRoutingTree frt(net, p);
  std::unordered_set<PeerId> seen;
  for (std::size_t i = 0; i <= frt.height(); ++i) {
    seen.insert(frt.level(i).begin(), frt.level(i).end());
  }
  EXPECT_EQ(seen.size(), net.num_peers());
}

// Paper §4.2: with a common-prefix region, all destinations sit at FRT
// level b - f, and PIRA reaches them in exactly b - f hops.
TEST(ForwardRoutingTree, DestinationsLiveAtLevelBMinusF) {
  auto fx = testsupport::make_single_index(250, 54);
  auto& net = fx->net;
  auto& index = fx->index;
  Rng rng(55);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double lo = rng.next_double(0.0, 900.0);
    const double hi = lo + rng.next_double(0.0, 100.0);
    const auto region = index.naming_tree().region_for(lo, hi);
    if (region.common_prefix().empty()) {
      continue;  // multi-class query; levels differ per class
    }
    const PeerId issuer =
        net.alive_peers()[rng.next_index(net.alive_peers().size())];
    const ForwardRoutingTree frt(net, issuer);
    const std::size_t dest_level = frt.destination_level(region);

    const auto expected = testsupport::expected_destinations(net, region);
    const auto& level = frt.level(dest_level);
    for (PeerId d : expected) {
      EXPECT_NE(std::find(level.begin(), level.end(), d), level.end())
          << "destination " << net.peer(d).peer_id.to_string()
          << " missing from level " << dest_level;
    }

    // PIRA's measured delay equals the destination level.
    const auto r = index.range_query(issuer, lo, hi);
    EXPECT_DOUBLE_EQ(r.stats.delay, static_cast<double>(dest_level));
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(FrtSearchAlignment, ComSIsLongestSuffixPrefix) {
  const auto id = KautzString::parse("2120");
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("201")), 2u);
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("0120")), 1u);
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("1012")), 0u);
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("2120")), 4u);
  // Alignment never exceeds |ComT|.
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("2")), 0u);
  EXPECT_EQ(FrtSearch::start_alignment(id, KautzString::parse("0")), 1u);
}

}  // namespace
}  // namespace armada::core
