#include "fissione/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "kautz/kautz_space.h"
#include "support/kautz_graph.h"
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

// Paper §3: once every PeerID has one length k, the overlay is the Kautz
// graph K(2, k). Each peer's out- and in-neighbors carry exactly the labels
// of its node's out- and in-neighbors in the static graph. The check starts
// at the 3-peer bootstrap overlay, K(2, 1).
TEST(FissioneJoin, UniformLengthOverlaysAreKautzGraphs) {
  // The labels of `ids` under `label_of`, sorted.
  auto labels = [](const auto& ids, auto label_of) {
    std::vector<std::string> out;
    for (const auto id : ids) {
      out.push_back(label_of(id).to_string());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::size_t checked = 0;
  std::size_t checked_k1 = 0;
  std::size_t checked_k3_or_more = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    FissioneNetwork net(FissioneNetwork::Config{}, seed);
    auto peer_label = [&net](PeerId q) { return net.peer_id(q); };
    for (; net.num_peers() <= 200; net.join()) {
      const std::size_t k = net.peer_id(net.alive_peers().front()).length();
      if (!std::all_of(net.alive_peers().begin(), net.alive_peers().end(),
                       [&](PeerId p) { return net.peer_id(p).length() == k; })) {
        continue;
      }
      const kautz::KautzGraph graph(k);
      auto node_label = [&graph](std::uint64_t v) { return graph.label(v); };
      ASSERT_EQ(net.num_peers(), graph.num_nodes()) << "seed " << seed;
      for (PeerId p : net.alive_peers()) {
        const Peer peer = net.peer(p);
        const std::uint64_t node = graph.node(peer.peer_id);
        ASSERT_EQ(labels(peer.out_neighbors, peer_label),
                  labels(graph.out_neighbors(node), node_label))
            << "out-list of " << peer.peer_id.to_string() << ", seed "
            << seed;
        ASSERT_EQ(labels(peer.in_neighbors, peer_label),
                  labels(graph.in_neighbors(node), node_label))
            << "in-list of " << peer.peer_id.to_string() << ", seed " << seed;
      }
      ++checked;
      if (k == 1) {
        ++checked_k1;
      }
      if (k >= 3) {
        ++checked_k3_or_more;
      }
    }
  }
  EXPECT_GE(checked, 40u);
  EXPECT_EQ(checked_k1, 40u);  // every seed's bootstrap overlay
  // Not vacuous: some seed passes through a uniform length of 3 or more.
  EXPECT_GE(checked_k3_or_more, 1u);
}

TEST(FissioneRouting, ReachesOwnerWithinIdLengthHops) {
  auto net = FissioneNetwork::build(500, 5);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const KautzString target = kautz::random_string(rng, 48);
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
  const KautzString target = kautz::random_string(rng, 48);
  const PeerId owner = net.owner_of(target);
  const RouteResult r = net.route(owner, target);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.owner, owner);
}

TEST(FissioneRouting, PathHopsFollowOutEdges) {
  auto net = FissioneNetwork::build(300, 8);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const KautzString target = kautz::random_string(rng, 48);
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
    ids.push_back(kautz::random_string(rng, 48));
    net.publish(ids.back(), v);
  }
  EXPECT_EQ(net.total_objects(), 100u);
  for (std::uint64_t v = 0; v < 100; ++v) {
    const PeerId owner = net.route(
        net.alive_peers()[rng.next_index(net.alive_peers().size())],
        ids[v]).owner;
    std::vector<std::uint64_t> payloads;
    net.for_each_owned(owner, [&](const StoredObject& obj) {
      if (obj.object_id == ids[v]) {
        payloads.push_back(obj.payload);
      }
    });
    ASSERT_EQ(payloads.size(), 1u) << ids[v].to_string();
    EXPECT_EQ(payloads[0], v);
  }
}

TEST(FissioneData, ObjectsFollowSplits) {
  FissioneNetwork net(FissioneNetwork::Config{}, 10);
  Rng rng(17);
  for (std::uint64_t v = 0; v < 200; ++v) {
    net.publish(kautz::random_string(rng, 48), v);
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
    net.publish(kautz::random_string(rng, 48), v);
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
    net.publish(kautz::random_string(rng, 48), v);
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
    const KautzString target = kautz::random_string(rng, 48);
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
  EXPECT_EQ(a.length(), FissioneNetwork::kObjectIdLength);
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
    net.publish(kautz::random_string(rng, 48), v);
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
    const KautzString target = kautz::random_string(rng, 48);
    const PeerId from =
        net.alive_peers()[rng.next_index(net.alive_peers().size())];
    EXPECT_EQ(net.route(from, target).owner, net.owner_of(target));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FissioneChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 1234));

// The inline neighbor lists hold every table the neighborhood invariant
// allows: at most 4 out- and 2 in-neighbors, after every step of a long
// join/leave/crash cycle. Refreshing a rewired set adds in-edges only after
// dropping all stale ones; interleaving the two overfills an in-list.
TEST(FissioneChurn, DegreeBoundsHoldAfterEveryStep) {
  auto net = FissioneNetwork::build(2000, 5);
  std::size_t peak_in = 0;  // not vacuous: in-lists reach the bound
  for (int step = 0; step < 3000; ++step) {
    switch (step % 3) {
      case 0:
        net.join();
        break;
      case 1:
        net.leave(net.random_peer());
        break;
      default:
        net.crash(net.random_peer());
        break;
    }
    std::size_t max_out = 0;
    std::size_t max_in = 0;
    bool duplicate_in = false;
    for (PeerId p : net.alive_peers()) {
      const std::span<const PeerId> in = net.in_neighbors(p);
      max_out = std::max(max_out, net.out_neighbors(p).size());
      max_in = std::max(max_in, in.size());
      duplicate_in = duplicate_in || (in.size() == 2 && in[0] == in[1]);
    }
    ASSERT_LE(max_out, 4u) << "step " << step;
    ASSERT_LE(max_in, 2u) << "step " << step;
    ASSERT_FALSE(duplicate_in) << "step " << step;
    ASSERT_NO_THROW(net.check_invariants()) << "step " << step;
    peak_in = std::max(peak_in, max_in);
  }
  EXPECT_EQ(net.num_peers(), 1000u);
  EXPECT_EQ(peak_in, 2u);
}

// The zone index agrees with full scans of the alive peers after every step
// of a seeded churn run: cover_of_prefix — in alive_peers() order — with
// the alive-order scan for peers whose PeerID is comparable to the prefix
// (what ReplicaSet calls the region's primaries), and owner_of with the one
// alive PeerID that prefixes a string. Two overlays: on 2000 peers every
// prefix of length <= 5 is shorter than every PeerID, so each cover is the
// run of PeerIDs extending it; on about 40 peers, length-5 prefixes outrun
// the shorter PeerIDs, whose covers are the one PeerID above the prefix.
TEST(FissioneZoneIndex, PrefixCoverAndOwnerMatchFullScansUnderChurn) {
  std::vector<KautzString> prefixes;
  std::vector<KautzString> level{KautzString{}};
  for (int len = 1; len <= 5; ++len) {
    std::vector<KautzString> next;
    for (const KautzString& p : level) {
      for (std::uint8_t s = 0; s <= kautz::kBase; ++s) {
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

  std::size_t extending_covers = 0;  // covers of PeerIDs extending the prefix
  std::size_t covering_covers = 0;   // covers of one PeerID above the prefix
  Rng probe_rng(4111);
  const auto check = [&](const FissioneNetwork& net, int step) {
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
      std::vector<PeerId> cover = net.cover_of_prefix(prefix);
      ASSERT_TRUE(std::is_sorted(
          cover.begin(), cover.end(), [&net](PeerId a, PeerId b) {
            return net.peer_id(a) < net.peer_id(b);
          }))
          << "step " << step << " prefix " << prefix.to_string();
      if (cover.size() == 1 &&
          net.peer_id(cover[0]).length() < prefix.length()) {
        ++covering_covers;
      } else {
        ++extending_covers;
      }
      std::sort(cover.begin(), cover.end(), [&net](PeerId a, PeerId b) {
        return net.alive_index(a) < net.alive_index(b);
      });
      ASSERT_EQ(cover, scan) << "step " << step << " prefix "
                             << prefix.to_string();
    }
    for (int i = 0; i < 20; ++i) {
      const KautzString s = kautz::random_string(probe_rng, 48);
      PeerId prefixing = kNoPeer;
      for (PeerId p : net.alive_peers()) {
        if (net.peer_id(p).is_prefix_of(s)) {
          ASSERT_EQ(prefixing, kNoPeer) << "two zones hold " << s.to_string();
          prefixing = p;
        }
      }
      ASSERT_EQ(net.owner_of(s), prefixing)
          << "step " << step << " string " << s.to_string();
    }
    // A PeerID is the least string of its zone; a proper prefix of it is
    // shorter than the zone covering it, and resolves to no owner.
    const PeerId any = net.alive_peers()[static_cast<std::size_t>(step + 1) %
                                         net.alive_peers().size()];
    const KautzString& pid = net.peer_id(any);
    ASSERT_EQ(net.owner_of(pid), any) << "step " << step;
    EXPECT_THROW(net.owner_of(pid.prefix(pid.length() - 1)), CheckError)
        << "step " << step;
  };

  struct Input {
    std::size_t peers;
    std::uint64_t seed;
    std::uint64_t churn_seed;
    int steps;
  };
  for (const Input input :
       {Input{2000, 61, 4099, 520}, Input{40, 62, 4103, 120}}) {
    auto net = FissioneNetwork::build_snapshot(input.peers, input.seed,
                                               FissioneNetwork::Config{});
    Rng rng(input.churn_seed);
    check(net, -1);
    std::size_t joins = 0;
    std::size_t leaves = 0;
    std::size_t crashes = 0;
    for (int step = 0; step < input.steps; ++step) {
      const double dice = rng.next_double();
      if (dice < 0.4 || net.num_peers() <= 30) {
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
      check(net, step);
      if (HasFatalFailure()) {
        return;
      }
    }
    net.check_invariants();
    EXPECT_GT(joins, input.steps / 5u) << input.peers << " peers";
    EXPECT_GT(leaves, input.steps / 5u) << input.peers << " peers";
    EXPECT_GT(crashes, input.steps / 10u) << input.peers << " peers";
  }
  // Both branches of cover_of_prefix ran.
  EXPECT_GT(extending_covers, 0u);
  EXPECT_GT(covering_covers, 0u);
}

// build_snapshot() must be bit-identical to routed joins: same PeerIDs
// (zones), same neighbor tables, same RNG position afterward — it only
// skips the routed placement walk (pure measurement). Structure AND the
// subsequent evolution must match.
TEST(FissioneSnapshot, MatchesRoutedBuildExactly) {
  for (std::uint64_t seed : {7u, 99u}) {
    FissioneNetwork a(FissioneNetwork::Config{}, seed);
    while (a.num_peers() < 120) {
      a.join();
    }
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
