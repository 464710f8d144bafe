#include "kautz/kautz_space.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace armada::kautz {
namespace {

TEST(KautzSpace, SpaceSizeFormula) {
  EXPECT_EQ(space_size(0), 1u);
  EXPECT_EQ(space_size(1), 3u);
  EXPECT_EQ(space_size(2), 6u);
  EXPECT_EQ(space_size(3), 12u);  // K(2,3) in Figure 1 has 12 nodes
  EXPECT_EQ(space_size(4), 24u);
}

TEST(KautzSpace, SpaceSizeOverflowDetected) {
  EXPECT_EQ(space_size(63), 3 * (std::uint64_t{1} << 62));  // largest
  EXPECT_THROW(space_size(64), CheckError);
  EXPECT_THROW(space_size(100), CheckError);
}

TEST(KautzSpace, EnumerateIsSortedValidAndComplete) {
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u}) {
    const auto all = enumerate(len);
    EXPECT_EQ(all.size(), space_size(len));
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
    for (const auto& s : all) {
      EXPECT_EQ(s.length(), len);
    }
  }
}

TEST(KautzSpace, RankUnrankRoundTripExhaustive) {
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 6u}) {
    const auto all = enumerate(len);
    for (std::uint64_t r = 0; r < all.size(); ++r) {
      EXPECT_EQ(rank(all[r]), r) << all[r].to_string();
      EXPECT_EQ(unrank(len, r), all[r]);
    }
  }
}

TEST(KautzSpace, RankMatchesPaperRegionExample) {
  // Kautz region <010, 021> = {010, 012, 020, 021} (Definition 1).
  const auto lo = KautzString::parse("010");
  const auto hi = KautzString::parse("021");
  EXPECT_EQ(rank(hi) - rank(lo) + 1, 4u);
}

TEST(KautzSpace, MinMaxExtensionAreExtremeAmongExtensions) {
  const auto all = enumerate(6);
  for (const auto& prefix :
       {KautzString::parse("0"), KautzString::parse("21"),
        KautzString::parse("0102"), KautzString{}}) {
    const auto lo = min_extension(prefix, 6);
    const auto hi = max_extension(prefix, 6);
    EXPECT_EQ(lo.length(), 6u);
    EXPECT_EQ(hi.length(), 6u);
    for (const auto& s : all) {
      if (prefix.is_prefix_of(s)) {
        EXPECT_LE(lo, s);
        EXPECT_GE(hi, s);
      }
    }
    EXPECT_TRUE(prefix.is_prefix_of(lo));
    EXPECT_TRUE(prefix.is_prefix_of(hi));
  }
}

TEST(KautzSpace, MinMaxExtensionAlternatingPattern) {
  EXPECT_EQ(min_extension(KautzString{}, 5).to_string(), "01010");
  EXPECT_EQ(max_extension(KautzString{}, 5).to_string(), "21212");
  EXPECT_EQ(min_extension(KautzString::parse("20"), 5).to_string(), "20101");
  EXPECT_EQ(max_extension(KautzString::parse("02"), 5).to_string(), "02121");
}

TEST(KautzSpace, SuccessorPredecessorAgreeWithEnumeration) {
  const auto all = enumerate(4);
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_EQ(successor(all[i]), all[i + 1]);
    EXPECT_EQ(predecessor(all[i + 1]), all[i]);
  }
  EXPECT_TRUE(is_space_min(all.front()));
  EXPECT_TRUE(is_space_max(all.back()));
  EXPECT_THROW(predecessor(all.front()), CheckError);
  EXPECT_THROW(successor(all.back()), CheckError);
}

TEST(KautzSpace, SymbolIndexRoundTrip) {
  for (std::uint8_t prev = 0; prev <= kBase; ++prev) {
    for (std::uint8_t sym = 0; sym <= kBase; ++sym) {
      if (sym == prev) {
        continue;
      }
      EXPECT_EQ(index_symbol(symbol_index(sym, prev), prev), sym);
    }
  }
}

TEST(KautzSpace, RandomStringValidAndLongLengthsWork) {
  Rng rng(42);
  for (std::size_t len : {std::size_t{1}, std::size_t{5}, std::size_t{24},
                          KautzString::kMaxLength}) {
    const auto s = random_string(rng, len);
    EXPECT_EQ(s.length(), len);  // constructor enforces validity
  }
}

TEST(KautzSpace, RandomStringRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(space_size(3));
  const int trials = 12000;
  for (int i = 0; i < trials; ++i) {
    counts[rank(random_string(rng, 3))]++;
  }
  // Each of the 12 strings has expectation 1000; allow generous slack.
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

}  // namespace
}  // namespace armada::kautz
