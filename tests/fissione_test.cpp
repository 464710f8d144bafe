#include "fissione/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "kautz/kautz_space.h"
#include "util/check.h"
#include "util/rng.h"

namespace armada::fissione {
namespace {

using kautz::KautzString;

TEST(FissioneBootstrap, ThreeSeedPeers) {
  FissioneNetwork net(FissioneNetwork::Config{}, 1);
  EXPECT_EQ(net.num_peers(), 3u);
  net.check_invariants();
  // Seed peers own "0", "1", "2" and are pairwise neighbors (K(2,1)).
  std::unordered_set<std::string> ids;
  for (PeerId p : net.alive_peers()) {
    ids.insert(net.peer(p).peer_id.to_string());
    EXPECT_EQ(net.peer(p).out_neighbors.size(), 2u);
  }
  EXPECT_EQ(ids, (std::unordered_set<std::string>{"0", "1", "2"}));
}

TEST(FissioneJoin, InvariantsAfterEachOfManyJoins) {
  FissioneNetwork net(FissioneNetwork::Config{}, 2);
  for (int i = 0; i < 60; ++i) {
    net.join();
    net.check_invariants();
    EXPECT_LE(net.max_neighbor_length_gap(), 1u);
  }
  EXPECT_EQ(net.num_peers(), 63u);
}

TEST(FissioneJoin, BalancedIdLengths) {
  auto net = FissioneNetwork::build(2000, 3);
  const auto hist = net.peer_id_length_histogram();
  const double log_n = std::log2(2000.0);
  // Paper §3: max PeerID length < 2 log2 N, average < log2 N.
  EXPECT_LT(static_cast<double>(hist.max()), 2 * log_n);
  EXPECT_LT(hist.mean(), log_n);
}

TEST(FissioneJoin, AverageDegreeAboutFour) {
  auto net = FissioneNetwork::build(1000, 4);
  EXPECT_NEAR(net.average_degree(), 4.0, 0.8);
}

TEST(FissioneRouting, ReachesOwnerWithinIdLengthHops) {
  auto net = FissioneNetwork::build(500, 5);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const KautzString target = kautz::random_string(rng, 2, 48);
    const PeerId from =
        net.alive_peers()[rng.next_index(net.alive_peers().size())];
    const RouteResult r = net.route(from, target);
    EXPECT_EQ(r.owner, net.owner_of(target));
    EXPECT_LE(r.hops, net.peer(from).peer_id.length());
    EXPECT_EQ(r.path.size(), static_cast<std::size_t>(r.hops) + 1);
    EXPECT_EQ(r.path.front(), from);
    EXPECT_EQ(r.path.back(), r.owner);
  }
}

TEST(FissioneRouting, ZeroHopsWhenSourceOwns) {
  auto net = FissioneNetwork::build(100, 6);
  Rng rng(7);
  const KautzString target = kautz::random_string(rng, 2, 48);
  const PeerId owner = net.owner_of(target);
  const RouteResult r = net.route(owner, target);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.owner, owner);
}

TEST(FissioneRouting, PathHopsFollowOutEdges) {
  auto net = FissioneNetwork::build(300, 8);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const KautzString target = kautz::random_string(rng, 2, 48);
    const RouteResult r = net.route(
        net.alive_peers()[rng.next_index(net.alive_peers().size())], target);
    for (std::size_t h = 0; h + 1 < r.path.size(); ++h) {
      const auto& out = net.peer(r.path[h]).out_neighbors;
      EXPECT_NE(std::find(out.begin(), out.end(), r.path[h + 1]), out.end());
    }
  }
}

TEST(FissioneData, PublishLookupRoundTrip) {
  auto net = FissioneNetwork::build(200, 9);
  Rng rng(13);
  std::vector<KautzString> ids;
  for (std::uint64_t v = 0; v < 100; ++v) {
    ids.push_back(kautz::random_string(rng, 2, 48));
    net.publish(ids.back(), v);
  }
  EXPECT_EQ(net.total_objects(), 100u);
  for (std::uint64_t v = 0; v < 100; ++v) {
    const auto payloads = net.lookup(
        net.alive_peers()[rng.next_index(net.alive_peers().size())], ids[v]);
    ASSERT_EQ(payloads.size(), 1u) << ids[v].to_string();
    EXPECT_EQ(payloads[0], v);
  }
}

TEST(FissioneData, ObjectsFollowSplits) {
  FissioneNetwork net(FissioneNetwork::Config{}, 10);
  Rng rng(17);
  for (std::uint64_t v = 0; v < 200; ++v) {
    net.publish(kautz::random_string(rng, 2, 48), v);
  }
  for (int i = 0; i < 50; ++i) {
    net.join();
  }
  EXPECT_EQ(net.total_objects(), 200u);
  net.check_invariants();  // includes placement checks
}

TEST(FissioneLeave, GracefulDepartureTransfersObjects) {
  auto net = FissioneNetwork::build(80, 11);
  Rng rng(19);
  for (std::uint64_t v = 0; v < 300; ++v) {
    net.publish(kautz::random_string(rng, 2, 48), v);
  }
  for (int i = 0; i < 40; ++i) {
    const auto& alive = net.alive_peers();
    net.leave(alive[rng.next_index(alive.size())]);
    net.check_invariants();
    EXPECT_LE(net.max_neighbor_length_gap(), 1u);
  }
  EXPECT_EQ(net.num_peers(), 40u);
  EXPECT_EQ(net.total_objects(), 300u);
}

TEST(FissioneCrash, LosesOnlyLocalObjectsAndHeals) {
  auto net = FissioneNetwork::build(100, 12);
  Rng rng(23);
  for (std::uint64_t v = 0; v < 400; ++v) {
    net.publish(kautz::random_string(rng, 2, 48), v);
  }
  const std::size_t before = net.total_objects();
  const auto& alive = net.alive_peers();
  const PeerId victim = alive[rng.next_index(alive.size())];
  const std::size_t victim_objects = net.peer(victim).store.size();
  const std::size_t lost = net.crash(victim);
  EXPECT_EQ(lost, victim_objects);
  EXPECT_EQ(net.total_objects(), before - lost);
  net.check_invariants();
  // Routing still works everywhere after the failure is healed.
  for (int i = 0; i < 50; ++i) {
    const KautzString target = kautz::random_string(rng, 2, 48);
    const PeerId from =
        net.alive_peers()[rng.next_index(net.alive_peers().size())];
    EXPECT_EQ(net.route(from, target).owner, net.owner_of(target));
  }
}

TEST(FissioneLeave, RefusesToDropBelowBootstrap) {
  FissioneNetwork net(FissioneNetwork::Config{}, 13);
  EXPECT_THROW(net.leave(net.alive_peers().front()), CheckError);
}

TEST(FissioneHash, KautzHashDeterministicAndValid) {
  FissioneNetwork net(FissioneNetwork::Config{}, 14);
  const auto a = net.kautz_hash("hello");
  const auto b = net.kautz_hash("hello");
  const auto c = net.kautz_hash("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.length(), net.config().object_id_length);
}

TEST(FissioneJoin, PlacementHopsBounded) {
  auto net = FissioneNetwork::build(500, 15);
  for (int i = 0; i < 20; ++i) {
    const auto stats = net.join();
    EXPECT_LE(stats.placement_hops,
              static_cast<std::uint32_t>(
                  2 * std::log2(static_cast<double>(net.num_peers())) + 2));
  }
}

// Property sweep: random churn mixes at several seeds keep every invariant.
class FissioneChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FissioneChurnTest, InvariantsUnderRandomChurn) {
  const std::uint64_t seed = GetParam();
  auto net = FissioneNetwork::build(60, seed);
  Rng rng(seed * 7919 + 1);
  for (std::uint64_t v = 0; v < 100; ++v) {
    net.publish(kautz::random_string(rng, 2, 48), v);
  }
  for (int step = 0; step < 120; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.45 || net.num_peers() <= 10) {
      net.join();
    } else if (dice < 0.9) {
      const auto& alive = net.alive_peers();
      net.leave(alive[rng.next_index(alive.size())]);
    } else {
      const auto& alive = net.alive_peers();
      net.crash(alive[rng.next_index(alive.size())]);
    }
    if (step % 10 == 0) {
      net.check_invariants();
      EXPECT_LE(net.max_neighbor_length_gap(), 1u);
    }
  }
  net.check_invariants();
  // Routing correctness after heavy churn.
  for (int i = 0; i < 100; ++i) {
    const KautzString target = kautz::random_string(rng, 2, 48);
    const PeerId from =
        net.alive_peers()[rng.next_index(net.alive_peers().size())];
    EXPECT_EQ(net.route(from, target).owner, net.owner_of(target));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FissioneChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 1234));

// The tree agrees with full scans of the alive peers after every step of a
// seeded churn run: deepest_leaf with the lowest PeerId at the greatest
// depth (its tie rule), and cover_of_prefix — in alive_peers() order —
// with the alive-order scan for peers whose PeerID is comparable to the
// prefix (what ReplicaSet calls the region's primaries).
TEST(FissioneTreeIndex, DeepestLeafAndPrefixCoverMatchFullScansUnderChurn) {
  auto net =
      FissioneNetwork::build_snapshot(2000, 61, FissioneNetwork::Config{});
  std::vector<KautzString> prefixes;
  std::vector<KautzString> level{KautzString(net.config().base)};
  for (int len = 1; len <= 5; ++len) {
    std::vector<KautzString> next;
    for (const KautzString& p : level) {
      for (std::uint8_t s = 0; s <= p.base(); ++s) {
        if (p.can_append(s)) {
          KautzString child = p;
          child.push_back(s);
          next.push_back(std::move(child));
        }
      }
    }
    prefixes.insert(prefixes.end(), next.begin(), next.end());
    level = std::move(next);
  }
  ASSERT_EQ(prefixes.size(), 3u + 6u + 12u + 24u + 48u);

  const auto check = [&net, &prefixes](int step) {
    const KautzTree& tree = net.tree();
    PeerId deepest = kNoPeer;
    std::size_t depth = 0;
    for (PeerId p = 0; p < net.peer_id_bound(); ++p) {
      if (net.is_alive(p) && tree.depth_of(p) > depth) {
        depth = tree.depth_of(p);
        deepest = p;
      }
    }
    ASSERT_EQ(tree.deepest_leaf(), deepest) << "step " << step;
    // One alive-order pass: a PeerID at least as long as a prefix is
    // comparable with it iff it starts with it; a shorter one is tested.
    std::map<KautzString, std::vector<PeerId>> scans;
    for (PeerId p : net.alive_peers()) {
      const KautzString& pid = net.peer_id(p);
      for (std::size_t len = 1; len <= 5; ++len) {
        if (len <= pid.length()) {
          scans[pid.prefix(len)].push_back(p);
          continue;
        }
        for (const KautzString& prefix : prefixes) {
          if (prefix.length() == len && pid.is_prefix_of(prefix)) {
            scans[prefix].push_back(p);
          }
        }
      }
    }
    for (const KautzString& prefix : prefixes) {
      const std::vector<PeerId>& scan = scans[prefix];
      std::vector<PeerId> cover = tree.cover_of_prefix(prefix);
      std::sort(cover.begin(), cover.end(), [&net](PeerId a, PeerId b) {
        return net.alive_index(a) < net.alive_index(b);
      });
      ASSERT_EQ(cover, scan) << "step " << step << " prefix "
                             << prefix.to_string();
    }
  };

  Rng rng(4099);
  check(-1);
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t crashes = 0;
  for (int step = 0; step < 520; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.4) {
      net.join();
      ++joins;
    } else {
      const auto& alive = net.alive_peers();
      const PeerId victim = alive[rng.next_index(alive.size())];
      if (dice < 0.8) {
        net.leave(victim);
        ++leaves;
      } else {
        net.crash(victim);
        ++crashes;
      }
    }
    check(step);
    if (HasFatalFailure()) {
      return;
    }
  }
  net.check_invariants();
  EXPECT_GT(joins, 100u);
  EXPECT_GT(leaves, 100u);
  EXPECT_GT(crashes, 50u);
}

// build_snapshot() must be bit-identical to build(): same tree, same
// PeerIDs, same neighbor tables, same RNG position afterward — it only
// skips the routed placement walk (pure measurement). Structure AND the
// subsequent evolution must match.
TEST(FissioneSnapshot, MatchesRoutedBuildExactly) {
  for (std::uint64_t seed : {7u, 99u}) {
    FissioneNetwork a = FissioneNetwork::build(120, seed);
    FissioneNetwork b = FissioneNetwork::build_snapshot(
        120, seed, FissioneNetwork::Config{});
    auto expect_identical = [](FissioneNetwork& x, FissioneNetwork& y) {
      ASSERT_EQ(x.num_peers(), y.num_peers());
      ASSERT_EQ(x.alive_peers(), y.alive_peers());
      for (PeerId p : x.alive_peers()) {
        const Peer px = x.peer(p);
        const Peer py = y.peer(p);
        ASSERT_EQ(px.peer_id, py.peer_id);
        ASSERT_TRUE(std::equal(px.out_neighbors.begin(),
                               px.out_neighbors.end(),
                               py.out_neighbors.begin(),
                               py.out_neighbors.end()));
        ASSERT_TRUE(std::equal(px.in_neighbors.begin(),
                               px.in_neighbors.end(),
                               py.in_neighbors.begin(),
                               py.in_neighbors.end()));
      }
      // Same RNG position: the next draws coincide.
      ASSERT_EQ(x.random_object_id(), y.random_object_id());
      ASSERT_EQ(x.random_peer(), y.random_peer());
    };
    expect_identical(a, b);
    b.check_invariants();
    // The trajectories stay aligned through further routed joins and a
    // snapshot-grown extension.
    a.join();
    b.join();
    expect_identical(a, b);
    while (a.num_peers() < 160) {
      a.join();
    }
    b.grow_snapshot(160);
    expect_identical(a, b);
  }
}

}  // namespace
}  // namespace armada::fissione
