// Kautz regions: lexicographic intervals of KautzSpace (paper Definition 1).
#pragma once

#include <vector>

#include "kautz/kautz_string.h"

namespace armada::kautz {

/// Inclusive interval <lo, hi> of KautzSpace(kBase, k): all length-k Kautz
/// strings s with lo <= s <= hi. Both bounds have the same length.
class KautzRegion {
 public:
  KautzRegion(KautzString lo, KautzString hi);

  const KautzString& lo() const { return lo_; }
  const KautzString& hi() const { return hi_; }
  std::size_t length() const { return lo_.length(); }

  bool contains(const KautzString& s) const;

  /// Number of strings in the region (requires 64-bit-countable space).
  std::uint64_t size() const;

  /// Longest common prefix of lo and hi ("ComT" in the paper; may be empty).
  KautzString common_prefix() const;

  /// True iff some string of the region starts with `prefix`.
  /// (prefix.length() may be anything up to the region length.)
  bool intersects_prefix(const KautzString& prefix) const;

  /// Split into 1..3 subregions, each with a nonempty common prefix, whose
  /// disjoint union is this region (paper §4.2). Regions are returned in
  /// lexicographic order.
  std::vector<KautzRegion> split_common_prefix() const;

  bool operator==(const KautzRegion& other) const = default;

  std::string to_string() const;

 private:
  KautzString lo_;
  KautzString hi_;
};

}  // namespace armada::kautz
