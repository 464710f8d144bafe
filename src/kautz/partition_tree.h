// The partition tree P(2,k) and the paper's naming algorithms.
//
// P(2,k) mirrors the prefix structure of KautzSpace(2,k): the root has
// kBase+1 = 3 children, every other internal node has kBase = 2 children,
// and edge labels differ from the in-edge label of the parent, increasing
// left to right (paper §4.1, Figure 3). Node labels are exactly the Kautz
// strings of length <= k; leaf labels are KautzSpace(2,k) in lexicographic
// order. The tree's only shape parameter is its depth k.
//
// Single_hash (m = 1) partitions the attribute interval [L, H] across the
// tree and maps a value to the leaf whose subinterval contains it; it is
// interval-preserving (Definition 2). Multiple_hash partitions an
// m-dimensional box round-robin across attributes (level j splits attribute
// j mod m) and is partial-order preserving (Definition 4).
#pragma once

#include <span>
#include <vector>

#include "kautz/kautz_region.h"
#include "kautz/kautz_string.h"

namespace armada::kautz {

/// Real interval. Query intervals are closed [lo, hi]; partition-tree node
/// intervals are half-open [lo, hi) except at the top of the attribute range
/// (so every value maps to exactly one leaf).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool operator==(const Interval&) const = default;
};

using Box = std::vector<Interval>;

class PartitionTree {
 public:
  /// Multi-attribute tree over the given per-attribute value ranges.
  /// Requires k >= 1, at least one attribute, and lo < hi per attribute.
  PartitionTree(std::size_t k, Box attribute_ranges);

  /// Single-attribute convenience (the paper's P(2,k) over [L, H]).
  static PartitionTree single(std::size_t k, Interval range);

  std::size_t k() const { return k_; }
  std::size_t num_attributes() const { return ranges_.size(); }
  const Box& attribute_ranges() const { return ranges_; }

  /// Multiple_hash: ObjectID (leaf label) of a point; every coordinate must
  /// lie within its attribute range.
  KautzString multiple_hash(std::span<const double> point) const;

  /// Single_hash(c, L, H, k); requires a single-attribute tree.
  KautzString single_hash(double value) const;

  /// The subspace represented by a partition-tree node (label length <= k).
  Box box_for(const KautzString& label) const;

  /// Single-attribute subinterval of a node.
  Interval interval_for(const KautzString& label) const;

  /// Does node `label`'s subspace intersect the closed query box?
  bool box_intersects(const KautzString& label, const Box& query) const;

  /// Kautz region of a single-attribute range query [a, b] (paper §4.2):
  /// <Single_hash(a), Single_hash(b)>.
  KautzRegion region_for(double a, double b) const;

  /// Bounding Kautz region of a multi-attribute query (paper §5):
  /// <Multiple_hash(lower corner), Multiple_hash(upper corner)>. The true
  /// destination set may be a proper subset; MIRA prunes inside it.
  KautzRegion bounding_region(const Box& query) const;

 private:
  // Number of children of a node at depth `depth` (root: kBase+1, else
  // kBase).
  static std::uint64_t fanout(std::size_t depth);

  // Child subinterval: index `idx` of `f` children of [lo, hi).
  Interval child_interval(const Interval& parent, std::uint64_t idx,
                          std::uint64_t f) const;

  std::size_t k_;
  Box ranges_;
};

/// True iff closed query interval [q.lo, q.hi] intersects node interval
/// [node.lo, node.hi), where the node interval is closed above iff node.hi
/// equals `range_top`.
bool interval_intersects(const Interval& node, const Interval& query,
                         double range_top);

}  // namespace armada::kautz
