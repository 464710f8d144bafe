#include "support/kautz_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "kautz/kautz_space.h"

namespace armada::kautz {
namespace {

// Every edge u -> v is listed both ways: v among u's out-neighbors exactly
// when u is among v's in-neighbors.
void expect_in_out_transpose(const KautzGraph& g) {
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    for (std::uint64_t v : g.out_neighbors(u)) {
      const auto in = g.in_neighbors(v);
      EXPECT_NE(std::find(in.begin(), in.end(), u), in.end())
          << g.label(u).to_string() << " -> " << g.label(v).to_string();
    }
    for (std::uint64_t w : g.in_neighbors(u)) {
      const auto out = g.out_neighbors(w);
      EXPECT_NE(std::find(out.begin(), out.end(), u), out.end())
          << g.label(w).to_string() << " -> " << g.label(u).to_string();
    }
  }
}

TEST(KautzGraph, Figure1Structure) {
  // K(2,3): 12 nodes, out-degree 2, diameter 3 (optimal diameter = k).
  const KautzGraph g(3);
  EXPECT_EQ(g.num_nodes(), 12u);
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.out_neighbors(u).size(), 2u);
    EXPECT_EQ(g.in_neighbors(u).size(), 2u);
  }
  EXPECT_EQ(g.diameter(), 3u);
}

// K(2,1) is FISSIONE's 3-peer bootstrap overlay: the labels "0", "1" and
// "2", each linked to the other two and never to itself.
TEST(KautzGraph, K21IsTheBootstrapTriangle) {
  const KautzGraph g(1);
  ASSERT_EQ(g.num_nodes(), 3u);
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    const auto out = g.out_neighbors(u);
    const auto in = g.in_neighbors(u);
    EXPECT_EQ(out.size(), 2u) << g.label(u).to_string();
    EXPECT_EQ(in.size(), 2u) << g.label(u).to_string();
    EXPECT_EQ(std::find(out.begin(), out.end(), u), out.end())
        << "self-loop at " << g.label(u).to_string();
    EXPECT_EQ(std::find(in.begin(), in.end(), u), in.end())
        << "self-loop at " << g.label(u).to_string();
  }
  expect_in_out_transpose(g);
  EXPECT_EQ(g.diameter(), 1u);
}

TEST(KautzGraph, Figure1SampleEdges) {
  const KautzGraph g(3);
  // Node 012 -> 120, 121 (shift left, append symbol != 2).
  const auto n = g.out_neighbors(g.node(KautzString::parse("012")));
  std::vector<std::string> labels;
  for (auto v : n) {
    labels.push_back(g.label(v).to_string());
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"120", "121"}));
}

TEST(KautzGraph, InOutConsistency) {
  expect_in_out_transpose(KautzGraph(4));
}

TEST(KautzGraph, DiameterIsKForSmallGraphs) {
  EXPECT_EQ(KautzGraph(2).diameter(), 2u);
  EXPECT_EQ(KautzGraph(4).diameter(), 4u);
}

TEST(KautzGraph, ShiftRouteDistanceBound) {
  // BFS distance between any two nodes is at most k (Kautz optimal
  // diameter), and equals k minus the longest suffix/prefix overlap for
  // shift routing upper bound.
  const KautzGraph g(5);
  const auto from = g.node(KautzString::parse("01201"));
  const auto dist = g.bfs_distances(from);
  for (std::uint64_t v = 0; v < g.num_nodes(); ++v) {
    const auto overlap =
        g.label(from).longest_suffix_prefix(g.label(v));
    EXPECT_LE(dist[v], 5u - overlap) << g.label(v).to_string();
  }
}

}  // namespace
}  // namespace armada::kautz
