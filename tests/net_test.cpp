#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "can/can_network.h"
#include "chord/chord.h"
#include "fissione/network.h"
#include "net/latency_model.h"
#include "net/routed_overlay.h"
#include "net/transport.h"
#include "skipgraph/skipgraph.h"
#include "util/check.h"
#include "util/stats.h"

namespace armada::net {
namespace {

// Sampled node pairs covering small ids, reused ids and far-apart ids.
std::vector<std::pair<NodeId, NodeId>> sample_links() {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; ++v) {
      links.emplace_back(u, v);
    }
  }
  links.emplace_back(7, 123456);
  links.emplace_back(0, 4000000);
  return links;
}

TEST(ConstantHop, EveryLinkCostsTheConstant) {
  const ConstantHop unit;
  for (const auto& [u, v] : sample_links()) {
    EXPECT_EQ(unit.link_latency(u, v), 1.0);
  }
}

TEST(ConstantHop, RejectsSelfLinks) {
  const ConstantHop m;
  EXPECT_THROW(m.link_latency(3, 3), CheckError);
}

template <typename Model>
void expect_pure_and_symmetric(const Model& a, const Model& b) {
  for (const auto& [u, v] : sample_links()) {
    const Time l = a.link_latency(u, v);
    EXPECT_GT(l, 0.0);
    EXPECT_EQ(l, a.link_latency(u, v));  // pure: repeated calls agree
    EXPECT_EQ(l, a.link_latency(v, u));  // symmetric
    EXPECT_EQ(l, b.link_latency(u, v));  // same seed => same matrix
  }
}

template <typename Model>
void expect_seed_sensitivity(const Model& a, const Model& other_seed) {
  bool any_differ = false;
  for (const auto& [u, v] : sample_links()) {
    any_differ |= a.link_latency(u, v) != other_seed.link_latency(u, v);
  }
  EXPECT_TRUE(any_differ);
}

TEST(UniformJitter, DeterministicSymmetricSeeded) {
  expect_pure_and_symmetric(UniformJitter(11), UniformJitter(11));
  expect_seed_sensitivity(UniformJitter(11), UniformJitter(12));
}

TEST(UniformJitter, StaysInsideBounds) {
  const UniformJitter m(5);
  OnlineStats s;
  for (const auto& [u, v] : sample_links()) {
    const Time l = m.link_latency(u, v);
    EXPECT_GE(l, 0.5);
    EXPECT_LT(l, 1.5);
    s.add(l);
  }
  // Uniform over [0.5, 1.5): the sample mean lands near the midpoint.
  EXPECT_NEAR(s.mean(), 1.0, 0.08);
}

TEST(TransitStub, DeterministicSymmetricSeeded) {
  expect_pure_and_symmetric(TransitStub(21), TransitStub(21));
  expect_seed_sensitivity(TransitStub(21), TransitStub(23));
}

TEST(TransitStub, ChargesIntraOrInterByCluster) {
  const TransitStub m(9);
  bool saw_intra = false;
  bool saw_inter = false;
  for (const auto& [u, v] : sample_links()) {
    EXPECT_LT(m.cluster_of(u), 16u);
    EXPECT_LT(m.cluster_of(v), 16u);
    const Time l = m.link_latency(u, v);
    if (m.cluster_of(u) == m.cluster_of(v)) {
      EXPECT_EQ(l, 1.0);
      saw_intra = true;
    } else {
      EXPECT_EQ(l, 10.0);
      saw_inter = true;
    }
  }
  EXPECT_TRUE(saw_intra);
  EXPECT_TRUE(saw_inter);
}

TEST(RttMatrix, DeterministicSymmetricSeeded) {
  expect_pure_and_symmetric(RttMatrix(31), RttMatrix(31));
  expect_seed_sensitivity(RttMatrix(31), RttMatrix(32));
}

TEST(RttMatrix, KingStyleLongTail) {
  const RttMatrix m(77);
  Percentiles p;
  for (NodeId u = 0; u < 200; ++u) {
    for (NodeId v = u + 1; v < 200; ++v) {
      p.add(m.link_latency(u, v));
    }
  }
  EXPECT_NEAR(p.p50(), 1.0, 0.1);       // median at the configured unit
  EXPECT_GT(p.p99(), 5.0);              // long tail: p99 >> median
  EXPECT_GT(p.percentile(1.0), 10.0);   // extreme tail past 10x
  EXPECT_LT(p.percentile(1.0), 25.01);  // ... but bounded by the CDF knot
}

TEST(Transport, DefaultsToConstantHop) {
  const Transport t;
  EXPECT_EQ(t.link(0, 1), 1.0);
  EXPECT_EQ(t.path_latency({4, 9, 2, 17}), 3.0);
  EXPECT_EQ(t.path_latency({4}), 0.0);
  EXPECT_EQ(t.path_latency({}), 0.0);
}

TEST(Transport, DeliversAtLinkLatency) {
  Transport t(std::make_shared<UniformJitter>(3));
  sim::Simulator sim;
  Time arrival = -1.0;
  Time queue_delay = -1.0;
  const Time at = t.deliver(sim, 5, 6, 0, [&](Time qd) {
    arrival = sim.now();
    queue_delay = qd;
  });
  sim.run();
  EXPECT_EQ(arrival, t.link(5, 6));
  EXPECT_EQ(at, arrival);  // the returned instant is the arrival
  EXPECT_EQ(queue_delay, 0.0);  // no queueing installed
  EXPECT_EQ(sim.events_processed(), 1u);  // one event per message

  // Chained deliveries accumulate like path_latency.
  Time second = -1.0;
  t.deliver(sim, 6, 7, 0, [&](Time) { second = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(second, arrival + t.link(6, 7));
}

TEST(Transport, SwappingTheModelChangesCharges) {
  Transport t;
  EXPECT_EQ(t.link(1, 2), 1.0);
  EXPECT_EQ(std::string(t.model().name()), "constant");
  t.set_model(std::make_shared<UniformJitter>(7));
  EXPECT_NE(t.link(1, 2), 1.0);
  EXPECT_EQ(t.link(1, 2), UniformJitter(7).link_latency(1, 2));
  EXPECT_EQ(std::string(t.model().name()), "jitter");
}

// Every DHT in the repo is reachable through the overlay::RoutedOverlay
// seam: one loop can re-price and inspect all of them without knowing the
// concrete type — the contract the cross-scheme benches rely on.
TEST(RoutedOverlay, OneSeamSpansEveryOverlay) {
  fissione::FissioneNetwork fnet = fissione::FissioneNetwork::build(40, 5);
  can::CanNetwork cnet(40, 5);
  chord::ChordNetwork rnet(40, 5);
  skipgraph::SkipGraph graph({1.0, 2.0, 5.0, 9.0, 12.0}, 5);

  const std::vector<overlay::RoutedOverlay*> overlays{&fnet, &cnet, &rnet,
                                                      &graph};
  const std::vector<std::size_t> sizes{40, 40, 40, 5};
  for (std::size_t i = 0; i < overlays.size(); ++i) {
    overlay::RoutedOverlay& o = *overlays[i];
    EXPECT_EQ(o.overlay_size(), sizes[i]);
    // Default transport: ConstantHop, one time unit per link...
    EXPECT_EQ(o.transport().link(0, 1), 1.0);
    // ... swappable generically through the seam.
    o.set_latency_model(std::make_shared<TransitStub>(3));
    EXPECT_EQ(o.transport().link(0, 1), TransitStub(3).link_latency(0, 1));
    EXPECT_EQ(std::string(o.transport().model().name()), "transit_stub");
    o.set_latency_model(std::make_shared<ConstantHop>());
  }

  // The walk-cost algebra composes fragments the way the engines do.
  sim::QueryStats walk;
  overlay::step(walk, rnet.transport(), 0, 1);
  overlay::step(walk, rnet.transport(), 1, 2);
  EXPECT_EQ(walk.messages, 2u);
  EXPECT_EQ(walk.delay, 2.0);
  EXPECT_EQ(walk.latency, 2.0);
  sim::QueryStats fan;
  overlay::fan_in(fan, walk);
  sim::QueryStats other;
  overlay::step(other, rnet.transport(), 2, 3);
  overlay::fan_in(fan, other);
  EXPECT_EQ(fan.messages, 3u);  // messages sum across branches
  EXPECT_EQ(fan.delay, 2.0);    // delay is the deepest branch
  sim::QueryStats head;
  overlay::chain(head, fan);
  overlay::chain(head, other);
  EXPECT_EQ(head.messages, 4u);
  EXPECT_EQ(head.delay, 3.0);
  EXPECT_EQ(head.latency, 3.0);
}

}  // namespace
}  // namespace armada::net
