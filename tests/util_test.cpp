#include <gtest/gtest.h>

#include <cmath>

#include "support/test_workloads.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace armada {
namespace {

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(ARMADA_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsWithLocation) {
  try {
    ARMADA_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

// Regression: random_subrange promised clamping but threw CheckError when
// max_size reached or exceeded the domain width (and on max_size == 0).
TEST(TestSupport, RandomSubrangeClampsOversizedAndZeroMaxSize) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto q = testsupport::random_subrange(rng, {0.0, 10.0}, 1e9);
    EXPECT_GE(q.lo, 0.0);
    EXPECT_LE(q.hi, 10.0);
    EXPECT_LE(q.lo, q.hi);
  }
  const auto point = testsupport::random_subrange(rng, {0.0, 10.0}, 0.0);
  EXPECT_EQ(point.lo, point.hi);
}

// Regression: Figure 6/8 benches crashed on small workloads because
// IncreRatio can legitimately collect zero samples (it needs >1 dest peer);
// mean_or() is the non-throwing accessor for such possibly-empty stats.
TEST(OnlineStats, MeanOrFallsBackWhenEmpty) {
  OnlineStats s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_TRUE(std::isnan(s.mean_or(std::nan(""))));
  EXPECT_EQ(s.mean_or(-1.0), -1.0);
  s.add(3.0);
  EXPECT_EQ(s.mean_or(-1.0), 3.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(1000), b.next_u64(1000));
  }
}

TEST(Rng, BoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_u64(17), 17u);
    const double d = rng.next_double(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
    const auto v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(11);
  Rng child = a.split();
  // Different streams should diverge almost surely.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64(1000000) == child.next_u64(1000000)) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(OnlineStats, MeanMinMax) {
  OnlineStats s;
  for (double x : {4.0, 2.0, 6.0, 8.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(Percentiles, NearestRankOnKnownDistributions) {
  // 1..100: the q-th percentile is exactly ceil(100q).
  Percentiles p;
  for (int i = 100; i >= 1; --i) {  // insertion order must not matter
    p.add(static_cast<double>(i));
  }
  EXPECT_EQ(p.count(), 100u);
  EXPECT_DOUBLE_EQ(p.p50(), 50.0);
  EXPECT_DOUBLE_EQ(p.p95(), 95.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.001), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 100.0);
  // Regression: 0.07 * 100 lands one ulp above 7.0; naive ceil returned the
  // 8th order statistic instead of the nearest-rank 7th.
  EXPECT_DOUBLE_EQ(p.percentile(0.07), 7.0);

  // A point mass: every percentile is the point.
  Percentiles point;
  for (int i = 0; i < 7; ++i) {
    point.add(3.5);
  }
  EXPECT_DOUBLE_EQ(point.p50(), 3.5);
  EXPECT_DOUBLE_EQ(point.p99(), 3.5);
}

TEST(Percentiles, SingleSampleAndErrors) {
  Percentiles p;
  EXPECT_THROW(p.p50(), CheckError);
  p.add(42.0);
  EXPECT_DOUBLE_EQ(p.p50(), 42.0);
  EXPECT_DOUBLE_EQ(p.p99(), 42.0);
  EXPECT_THROW(p.percentile(0.0), CheckError);
  EXPECT_THROW(p.percentile(1.5), CheckError);
}

TEST(Percentiles, InterleavedAddAndQuery) {
  // A query selects in place (reordering the samples); adding afterwards
  // must keep percentiles correct.
  Percentiles p;
  for (int i = 1; i <= 10; ++i) {
    p.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(p.p50(), 5.0);
  for (int i = 11; i <= 100; ++i) {
    p.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(p.p50(), 50.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
}

TEST(Histogram, BucketsMaxAndMean) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.add(i);
  }
  h.add(42, 2);
  EXPECT_EQ(h.total(), 102u);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), (5050.0 + 84.0) / 102.0);
  ASSERT_EQ(h.buckets().size(), 100u);
  EXPECT_EQ(h.buckets().at(42), 3u);
  EXPECT_EQ(h.buckets().begin()->first, 1);
}

TEST(Table, TextAndCsv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({Table::cell(std::int64_t{3}), Table::cell(4.5, 1)});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("| a"), std::string::npos);
  EXPECT_NE(text.find("4.5"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4.5\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

}  // namespace
}  // namespace armada
