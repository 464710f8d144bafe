// Native Skip Graph range queries (paper Table 1, "Skip Graph, SkipNet").
//
// Peers range-partition the attribute space by their keys; a query searches
// the start of the range in O(log N) and then walks level-0 successors.
// Delay is O(log N + n): the walk is sequential, so — unlike PIRA — delay
// grows with the size of the answer.
#pragma once

#include <cstdint>
#include <vector>

#include "armada/range_query.h"
#include "kautz/partition_tree.h"
#include "skipgraph/skipgraph.h"

namespace armada::rq {

class SkipGraphRangeIndex {
 public:
  /// `graph` keys must lie inside `domain`.
  SkipGraphRangeIndex(const skipgraph::SkipGraph& graph,
                      kautz::Interval domain);

  /// Publish a value at the peer owning it (greatest peer key <= value).
  std::uint64_t publish(double value);

  core::RangeQueryResult query(skipgraph::NodeId issuer, double lo,
                               double hi) const;

  /// Ground truth: peers whose key interval intersects [lo, hi].
  std::vector<skipgraph::NodeId> expected_destinations(double lo,
                                                       double hi) const;

 private:
  const skipgraph::SkipGraph& graph_;
  kautz::Interval domain_;
  std::vector<std::vector<std::pair<double, std::uint64_t>>> store_;
  std::uint64_t num_objects_ = 0;  ///< published so far; the next handle
};

}  // namespace armada::rq
