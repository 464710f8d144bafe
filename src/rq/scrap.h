// SCRAP (Ganesan et al., WebDB'04): multi-attribute range queries by
// linearizing with a space-filling curve (the Morton curve, SCRAP's classic
// choice) and range-partitioning the 1-d key space over a Skip Graph (paper
// Table 1 row; delay O(logN + n)).
//
// A query box decomposes into contiguous curve segments; each segment is a
// skip-graph search plus a successor walk. Segments are dispatched in
// parallel, so delay = max over segments, messages = sum.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "armada/range_query.h"
#include "kautz/partition_tree.h"
#include "sfc/sfc_region.h"
#include "skipgraph/skipgraph.h"

namespace armada::rq {

class Scrap {
 public:
  struct Config {
    std::uint32_t order = 16;         ///< curve order per attribute
    std::uint32_t min_side_bits = 8;  ///< decomposition cutoff
    kautz::Box domain{{0.0, 1000.0}, {0.0, 1000.0}};
  };

  /// `graph` keys must lie in [0, 4^order) — curve positions of the peers.
  Scrap(const skipgraph::SkipGraph& graph, Config config);

  std::uint64_t publish(const std::vector<double>& point);
  const std::array<double, 2>& point(std::uint64_t handle) const;

  core::RangeQueryResult query(skipgraph::NodeId issuer,
                               const kautz::Box& box) const;

  sfc::Cell cell_of(const std::vector<double>& point) const;

 private:
  const skipgraph::SkipGraph& graph_;
  Config config_;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> store_;
  std::vector<std::array<double, 2>> points_;  // by handle
};

}  // namespace armada::rq
