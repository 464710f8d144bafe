// Squid (Schmidt & Parashar): multi-attribute range queries on Chord via
// Hilbert-curve clusters (paper Table 1 row; delay O(h * logN)).
//
// Points map through a Hilbert curve onto the Chord ring. A query box is
// recursively refined into curve clusters (quadtree squares); entering each
// cluster costs one Chord routing, and a fully-covered cluster is resolved
// by walking the ring segment. The refinement depth h depends on the query
// and the space — exactly the term that makes Squid's delay unbounded
// compared with Armada.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "armada/range_query.h"
#include "chord/chord.h"
#include "kautz/partition_tree.h"
#include "sfc/sfc_region.h"

namespace armada::rq {

class Squid {
 public:
  struct Config {
    std::uint32_t order = 16;          ///< Hilbert order per attribute
    std::uint32_t min_side_bits = 8;   ///< refinement cutoff (over-approx below)
    kautz::Box domain{{0.0, 1000.0}, {0.0, 1000.0}};  ///< two attributes
  };

  Squid(const chord::ChordNetwork& net, Config config);

  std::uint64_t publish(const std::vector<double>& point);
  const std::array<double, 2>& point(std::uint64_t handle) const;

  core::RangeQueryResult query(chord::NodeId issuer,
                               const kautz::Box& box) const;

  /// Cell coordinates of a point (public for tests).
  sfc::Cell cell_of(const std::vector<double>& point) const;

 private:
  chord::Key ring_key(std::uint64_t hilbert_index) const;
  // Walk the ring owners of curve segment [first, last); returns the walk's
  // cost fragment (messages == delay == successor hops, latency priced per
  // link through the Chord transport).
  sim::QueryStats collect_segment(chord::NodeId entry, std::uint64_t first,
                                  std::uint64_t last, const kautz::Box& box,
                                  std::vector<char>& visited,
                                  core::RangeQueryResult& out) const;
  // Cost fragment of one cluster visit: the Chord routing into the cluster,
  // then either the segment walk or the concurrent fan over sub-clusters
  // (delay/latency take the max over branches).
  sim::QueryStats refine(chord::NodeId from, sfc::Cell corner,
                         std::uint32_t side_bits, std::uint64_t x_lo,
                         std::uint64_t x_hi, std::uint64_t y_lo,
                         std::uint64_t y_hi, const kautz::Box& box,
                         std::vector<char>& visited,
                         core::RangeQueryResult& out) const;

  const chord::ChordNetwork& net_;
  Config config_;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      store_;  // per node: (hilbert index, handle)
  std::vector<std::array<double, 2>> points_;  // by handle
};

}  // namespace armada::rq
