#include "kautz/partition_tree.h"

#include "kautz/kautz_space.h"
#include "util/check.h"

namespace armada::kautz {

PartitionTree::PartitionTree(std::size_t k, Box attribute_ranges)
    : k_(k), ranges_(std::move(attribute_ranges)) {
  ARMADA_CHECK(k_ >= 1);
  ARMADA_CHECK(!ranges_.empty());
  for (const Interval& r : ranges_) {
    ARMADA_CHECK_MSG(r.lo < r.hi, "degenerate attribute range");
  }
}

PartitionTree PartitionTree::single(std::size_t k, Interval range) {
  return PartitionTree(k, Box{range});
}

std::uint64_t PartitionTree::fanout(std::size_t depth) {
  return depth == 0 ? kBase + 1u : kBase;
}

Interval PartitionTree::child_interval(const Interval& parent,
                                       std::uint64_t idx,
                                       std::uint64_t f) const {
  const double width = parent.hi - parent.lo;
  Interval child;
  child.lo = idx == 0 ? parent.lo
                      : parent.lo + static_cast<double>(idx) * width /
                                        static_cast<double>(f);
  child.hi = idx == f - 1 ? parent.hi
                          : parent.lo + static_cast<double>(idx + 1) * width /
                                            static_cast<double>(f);
  return child;
}

KautzString PartitionTree::multiple_hash(std::span<const double> point) const {
  ARMADA_CHECK_MSG(point.size() == ranges_.size(),
                   "point has " << point.size() << " coordinates, tree has "
                                << ranges_.size() << " attributes");
  Box box = ranges_;
  for (std::size_t i = 0; i < point.size(); ++i) {
    ARMADA_CHECK_MSG(point[i] >= box[i].lo && point[i] <= box[i].hi,
                     "coordinate " << i << " = " << point[i]
                                   << " outside attribute range");
  }

  KautzString label;
  for (std::size_t depth = 0; depth < k_; ++depth) {
    const std::size_t attr = depth % ranges_.size();
    const std::uint64_t f = fanout(depth);
    const double v = point[attr];
    // First child whose upper boundary exceeds v; the last child takes the
    // closed top of the parent interval.
    std::uint64_t idx = f - 1;
    for (std::uint64_t c = 0; c + 1 < f; ++c) {
      if (v < child_interval(box[attr], c, f).hi) {
        idx = c;
        break;
      }
    }
    box[attr] = child_interval(box[attr], idx, f);
    label.push_back(depth == 0 ? static_cast<std::uint8_t>(idx)
                               : index_symbol(idx, label.back()));
  }
  return label;
}

KautzString PartitionTree::single_hash(double value) const {
  ARMADA_CHECK(ranges_.size() == 1);
  return multiple_hash({&value, 1});
}

Box PartitionTree::box_for(const KautzString& label) const {
  ARMADA_CHECK(label.length() <= k_);
  Box box = ranges_;
  for (std::size_t depth = 0; depth < label.length(); ++depth) {
    const std::size_t attr = depth % ranges_.size();
    const std::uint64_t f = fanout(depth);
    const std::uint64_t idx =
        depth == 0 ? label.digit(0)
                   : symbol_index(label.digit(depth), label.digit(depth - 1));
    box[attr] = child_interval(box[attr], idx, f);
  }
  return box;
}

Interval PartitionTree::interval_for(const KautzString& label) const {
  ARMADA_CHECK(ranges_.size() == 1);
  return box_for(label)[0];
}

bool interval_intersects(const Interval& node, const Interval& query,
                         double range_top) {
  if (query.hi < node.lo) {
    return false;
  }
  if (node.hi == range_top) {
    return query.lo <= node.hi;
  }
  return query.lo < node.hi;
}

bool PartitionTree::box_intersects(const KautzString& label,
                                   const Box& query) const {
  ARMADA_CHECK(query.size() == ranges_.size());
  const Box box = box_for(label);
  for (std::size_t i = 0; i < box.size(); ++i) {
    ARMADA_CHECK_MSG(query[i].lo <= query[i].hi, "inverted query interval");
    if (!interval_intersects(box[i], query[i], ranges_[i].hi)) {
      return false;
    }
  }
  return true;
}

KautzRegion PartitionTree::region_for(double a, double b) const {
  ARMADA_CHECK(ranges_.size() == 1);
  ARMADA_CHECK_MSG(a <= b, "inverted range query");
  return KautzRegion(single_hash(a), single_hash(b));
}

KautzRegion PartitionTree::bounding_region(const Box& query) const {
  ARMADA_CHECK(query.size() == ranges_.size());
  std::vector<double> lo_corner(query.size());
  std::vector<double> hi_corner(query.size());
  for (std::size_t i = 0; i < query.size(); ++i) {
    ARMADA_CHECK_MSG(query[i].lo <= query[i].hi, "inverted query interval");
    lo_corner[i] = query[i].lo;
    hi_corner[i] = query[i].hi;
  }
  return KautzRegion(multiple_hash(lo_corner), multiple_hash(hi_corner));
}

}  // namespace armada::kautz
