#include "support/kautz_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "kautz/kautz_space.h"

namespace armada::kautz {
namespace {

TEST(KautzGraph, Figure1Structure) {
  // K(2,3): 12 nodes, out-degree 2, diameter 3 (optimal diameter = k).
  const KautzGraph g(2, 3);
  EXPECT_EQ(g.num_nodes(), 12u);
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(g.out_neighbors(u).size(), 2u);
    EXPECT_EQ(g.in_neighbors(u).size(), 2u);
  }
  EXPECT_EQ(g.diameter(), 3u);
}

TEST(KautzGraph, Figure1SampleEdges) {
  const KautzGraph g(2, 3);
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
  const KautzGraph g(2, 4);
  for (std::uint64_t u = 0; u < g.num_nodes(); ++u) {
    for (std::uint64_t v : g.out_neighbors(u)) {
      const auto in = g.in_neighbors(v);
      EXPECT_NE(std::find(in.begin(), in.end(), u), in.end())
          << g.label(u).to_string() << " -> " << g.label(v).to_string();
    }
  }
}

TEST(KautzGraph, DiameterIsKForSmallGraphs) {
  EXPECT_EQ(KautzGraph(2, 2).diameter(), 2u);
  EXPECT_EQ(KautzGraph(2, 4).diameter(), 4u);
  EXPECT_EQ(KautzGraph(3, 3).diameter(), 3u);
}

TEST(KautzGraph, ShiftRouteDistanceBound) {
  // BFS distance between any two nodes is at most k (Kautz optimal
  // diameter), and equals k minus the longest suffix/prefix overlap for
  // shift routing upper bound.
  const KautzGraph g(2, 5);
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
