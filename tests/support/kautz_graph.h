// Static Kautz graph K(2,k) (paper §3, Figure 1), a test oracle.
//
// kautz_graph_test checks the paper's claims about the exact graph on small
// instances: Figure 1's K(2,3) (12 nodes, in- and out-degree 2, its sample
// edges), K(2,1) (FISSIONE's 3-peer bootstrap: two out-neighbors each, no
// self-loop), in/out-edge transposition, optimal diameter (= k), and that
// BFS distance never exceeds k minus the shift-routing overlap.
#pragma once

#include <cstdint>
#include <vector>

#include "kautz/kautz_string.h"

namespace armada::kautz {

class KautzGraph {
 public:
  /// Requires k >= 1 and space_size(k) small enough to materialize
  /// (validation-scale graphs).
  explicit KautzGraph(std::size_t k);

  std::size_t k() const { return k_; }
  std::uint64_t num_nodes() const { return num_nodes_; }

  KautzString label(std::uint64_t node) const;
  std::uint64_t node(const KautzString& label) const;

  std::vector<std::uint64_t> out_neighbors(std::uint64_t node) const;
  std::vector<std::uint64_t> in_neighbors(std::uint64_t node) const;

  /// Hop distances from `from` to every node (BFS over out-edges).
  std::vector<std::uint32_t> bfs_distances(std::uint64_t from) const;

  /// max over all ordered pairs; O(V * E), for validation-scale graphs.
  std::uint32_t diameter() const;

 private:
  std::size_t k_;
  std::uint64_t num_nodes_;
};

}  // namespace armada::kautz
