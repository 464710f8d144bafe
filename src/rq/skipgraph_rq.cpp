#include "rq/skipgraph_rq.h"

#include "net/routed_overlay.h"
#include "util/check.h"

namespace armada::rq {

using skipgraph::NodeId;

SkipGraphRangeIndex::SkipGraphRangeIndex(const skipgraph::SkipGraph& graph,
                                         kautz::Interval domain)
    : graph_(graph), domain_(domain), store_(graph.num_nodes()) {
  ARMADA_CHECK(domain_.lo < domain_.hi);
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    ARMADA_CHECK(graph_.key(id) >= domain_.lo && graph_.key(id) <= domain_.hi);
  }
}

std::uint64_t SkipGraphRangeIndex::publish(double value) {
  ARMADA_CHECK(value >= domain_.lo && value <= domain_.hi);
  const std::uint64_t handle = num_objects_++;
  store_[graph_.owner_of(value)].emplace_back(value, handle);
  return handle;
}

core::RangeQueryResult SkipGraphRangeIndex::query(NodeId issuer, double lo,
                                                  double hi) const {
  ARMADA_CHECK(lo <= hi);
  core::RangeQueryResult result;

  // O(log N) search to the start of the range...
  const skipgraph::SkipSearch s = graph_.search(issuer, lo);
  sim::QueryStats walk = s.stats;

  // ...then a sequential successor walk across the answer, each step priced
  // through the graph's transport. The search endpoint owns
  // [its key, next key) — always a destination, even when the whole query
  // lies below the first peer key.
  auto visit = [&](NodeId node) {
    result.destinations.push_back(node);
    ++result.stats.dest_peers;
    for (const auto& [value, handle] : store_[node]) {
      if (value >= lo && value <= hi) {
        result.matches.push_back(handle);
        ++result.stats.results;
      }
    }
  };
  NodeId cur = s.node;
  visit(cur);
  NodeId nxt = graph_.next(cur);
  while (nxt != skipgraph::kNoNode && graph_.key(nxt) <= hi) {
    overlay::step(walk, graph_.transport(), cur, nxt);
    cur = nxt;
    visit(cur);
    nxt = graph_.next(cur);
  }
  overlay::chain(result.stats, walk);
  return result;
}

std::vector<NodeId> SkipGraphRangeIndex::expected_destinations(
    double lo, double hi) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const double start = graph_.key(id);
    const NodeId nxt = graph_.next(id);
    const double end =
        nxt == skipgraph::kNoNode ? domain_.hi : graph_.key(nxt);
    const bool first = id == 0;
    // Peer covers [start, end) — and everything below for the first peer.
    const double cover_lo = first ? domain_.lo : start;
    if (cover_lo <= hi && lo < end) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace armada::rq
