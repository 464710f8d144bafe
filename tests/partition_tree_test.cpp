#include "kautz/partition_tree.h"

#include <gtest/gtest.h>

#include "kautz/kautz_space.h"
#include "util/check.h"
#include "util/rng.h"

namespace armada::kautz {
namespace {

TEST(PartitionTreeSingle, PaperFigure3Examples) {
  // P(2,4) over [0, 1] (paper Figure 3).
  const auto tree = PartitionTree::single(4, {0.0, 1.0});

  // Node U with label 0101 represents [0, 1/24].
  const Interval u = tree.interval_for(KautzString::parse("0101"));
  EXPECT_DOUBLE_EQ(u.lo, 0.0);
  EXPECT_NEAR(u.hi, 1.0 / 24.0, 1e-12);

  // Attribute value 0.1 lies in leaf P with label 0120.
  EXPECT_EQ(tree.single_hash(0.1).to_string(), "0120");

  // The range of [0.1, 0.24] is the Kautz region <0120, 0202> containing
  // exactly the four adjoining leaves P, R, W, S.
  const KautzRegion r = tree.region_for(0.1, 0.24);
  EXPECT_EQ(r.lo().to_string(), "0120");
  EXPECT_EQ(r.hi().to_string(), "0202");
  EXPECT_EQ(r.size(), 4u);
}

TEST(PartitionTreeSingle, RootChildrenSplitIntoThirds) {
  const auto tree = PartitionTree::single(3, {0.0, 1.0});
  const Interval a = tree.interval_for(KautzString::parse("0"));
  const Interval b = tree.interval_for(KautzString::parse("1"));
  const Interval c = tree.interval_for(KautzString::parse("2"));
  EXPECT_DOUBLE_EQ(a.lo, 0.0);
  EXPECT_NEAR(a.hi, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(b.lo, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(b.hi, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.lo, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.hi, 1.0);
}

TEST(PartitionTreeSingle, LeafIntervalsTileTheRange) {
  const auto tree = PartitionTree::single(5, {0.0, 1000.0});
  const auto leaves = enumerate(5);
  double cursor = 0.0;
  for (const auto& leaf : leaves) {
    const Interval iv = tree.interval_for(leaf);
    EXPECT_NEAR(iv.lo, cursor, 1e-9) << leaf.to_string();
    EXPECT_GT(iv.hi, iv.lo);
    cursor = iv.hi;
  }
  EXPECT_DOUBLE_EQ(cursor, 1000.0);
}

TEST(PartitionTreeSingle, HashIsInverseOfInterval) {
  const auto tree = PartitionTree::single(6, {-50.0, 75.0});
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_double(-50.0, 75.0);
    const auto leaf = tree.single_hash(v);
    const Interval iv = tree.interval_for(leaf);
    EXPECT_GE(v, iv.lo);
    EXPECT_LT(v, iv.hi == 75.0 ? 75.0 + 1e-9 : iv.hi);
  }
  // Top of range maps to the last leaf.
  EXPECT_EQ(tree.single_hash(75.0),
            max_extension(KautzString{}, 6));
  EXPECT_EQ(tree.single_hash(-50.0), min_extension(KautzString{}, 6));
}

TEST(PartitionTreeSingle, OrderPreserving) {
  const auto tree = PartitionTree::single(8, {0.0, 1000.0});
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.next_double(0.0, 1000.0);
    const double b = rng.next_double(0.0, 1000.0);
    const auto fa = tree.single_hash(a);
    const auto fb = tree.single_hash(b);
    if (a <= b) {
      EXPECT_LE(a <= b ? fa : fb, a <= b ? fb : fa);
    }
    if (fa < fb) {
      EXPECT_LT(a, b);
    }
  }
}

// Definition 2 (interval-preserving): the image of [a,b] is exactly the
// Kautz region <F(a), F(b)>. Equivalently, a leaf's interval intersects
// [a,b] iff the leaf lies in the region.
TEST(PartitionTreeSingle, IntervalPreservingExhaustive) {
  const auto tree = PartitionTree::single(5, {0.0, 1.0});
  const auto leaves = enumerate(5);
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    double a = rng.next_double();
    double b = rng.next_double();
    if (b < a) {
      std::swap(a, b);
    }
    const KautzRegion r = tree.region_for(a, b);
    for (const auto& leaf : leaves) {
      const Interval iv = tree.interval_for(leaf);
      const bool hits = interval_intersects(iv, {a, b}, 1.0);
      EXPECT_EQ(hits, r.contains(leaf))
          << "leaf " << leaf.to_string() << " [" << iv.lo << "," << iv.hi
          << ") query [" << a << "," << b << "]";
    }
  }
}

TEST(PartitionTreeMulti, RoundRobinSplitsAlternateAttributes) {
  // m=2 over [0,1]^2: level 0 splits attr 0 in thirds, level 1 splits attr 1
  // in halves, level 2 splits attr 0 again.
  const auto tree = PartitionTree(3, Box{{0.0, 1.0}, {0.0, 1.0}});
  const Box root0 = tree.box_for(KautzString::parse("0"));
  EXPECT_NEAR(root0[0].hi, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(root0[1].lo, 0.0);
  EXPECT_DOUBLE_EQ(root0[1].hi, 1.0);

  const Box l2 = tree.box_for(KautzString::parse("01"));
  EXPECT_NEAR(l2[0].hi, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(l2[1].hi, 0.5);

  const Box l3 = tree.box_for(KautzString::parse("010"));
  EXPECT_NEAR(l3[0].hi, 1.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(l3[1].hi, 0.5);
}

TEST(PartitionTreeMulti, HashBoxRoundTrip) {
  const auto tree = PartitionTree(7, Box{{0.0, 100.0}, {-10.0, 10.0}, {0.0, 1.0}});
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const std::vector<double> p{rng.next_double(0, 100),
                                rng.next_double(-10, 10), rng.next_double()};
    const auto leaf = tree.multiple_hash(p);
    EXPECT_EQ(leaf.length(), 7u);
    const Box box = tree.box_for(leaf);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GE(p[d], box[d].lo);
      EXPECT_LE(p[d], box[d].hi);
    }
  }
}

// Definition 4: partial-order preserving.
TEST(PartitionTreeMulti, PartialOrderPreserving) {
  const auto tree = PartitionTree(9, Box{{0.0, 1.0}, {0.0, 1.0}});
  Rng rng(37);
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> lo{rng.next_double(), rng.next_double()};
    std::vector<double> hi{lo[0] + rng.next_double() * (1 - lo[0]),
                           lo[1] + rng.next_double() * (1 - lo[1])};
    EXPECT_LE(tree.multiple_hash(lo), tree.multiple_hash(hi));
  }
}

TEST(PartitionTreeMulti, BoxIntersectsMatchesBruteForce) {
  const auto tree = PartitionTree(5, Box{{0.0, 1.0}, {0.0, 1.0}});
  const auto leaves = enumerate(5);
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    Box q(2);
    for (auto& iv : q) {
      iv.lo = rng.next_double();
      iv.hi = iv.lo + rng.next_double() * (1.0 - iv.lo);
    }
    for (const auto& leaf : leaves) {
      const Box box = tree.box_for(leaf);
      bool expected = true;
      for (std::size_t d = 0; d < 2; ++d) {
        expected =
            expected && interval_intersects(box[d], q[d], 1.0);
      }
      EXPECT_EQ(tree.box_intersects(leaf, q), expected) << leaf.to_string();
    }
  }
}

// The destinations of a multi-attribute query all live inside the bounding
// region <Multiple_hash(lo corner), Multiple_hash(hi corner)> (paper §5).
TEST(PartitionTreeMulti, BoundingRegionContainsAllIntersectingLeaves) {
  const auto tree = PartitionTree(6, Box{{0.0, 1.0}, {0.0, 1.0}});
  const auto leaves = enumerate(6);
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    Box q(2);
    for (auto& iv : q) {
      iv.lo = rng.next_double();
      iv.hi = iv.lo + rng.next_double() * (1.0 - iv.lo);
    }
    const KautzRegion r = tree.bounding_region(q);
    for (const auto& leaf : leaves) {
      if (tree.box_intersects(leaf, q)) {
        EXPECT_TRUE(r.contains(leaf)) << leaf.to_string();
      }
    }
  }
}

TEST(PartitionTree, RejectsBadInput) {
  EXPECT_THROW(PartitionTree::single(0, {0.0, 1.0}), CheckError);
  EXPECT_THROW(PartitionTree::single(4, {1.0, 1.0}), CheckError);
  EXPECT_THROW(PartitionTree(4, Box{}), CheckError);
  const auto tree = PartitionTree::single(4, {0.0, 1.0});
  EXPECT_THROW(tree.single_hash(1.5), CheckError);
  EXPECT_THROW(tree.multiple_hash(std::vector<double>{0.5, 0.5}), CheckError);
  EXPECT_THROW(tree.region_for(0.9, 0.1), CheckError);
}

TEST(PartitionTree, SingleHashIsMultipleHashWithOneAttribute) {
  const auto tree = PartitionTree::single(6, {0.0, 1000.0});
  Rng rng(47);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.next_double(0, 1000);
    EXPECT_EQ(tree.single_hash(v), tree.multiple_hash(std::vector<double>{v}));
  }
}

}  // namespace
}  // namespace armada::kautz
