#include "kautz/kautz_region.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "kautz/kautz_space.h"
#include "util/check.h"
#include "util/rng.h"

namespace armada::kautz {
namespace {

KautzRegion region(const std::string& lo, const std::string& hi) {
  return KautzRegion(KautzString::parse(lo), KautzString::parse(hi));
}

TEST(KautzRegion, PaperDefinitionExample) {
  // <010, 021> = {010, 012, 020, 021}.
  const auto r = region("010", "021");
  EXPECT_EQ(r.size(), 4u);
  EXPECT_TRUE(r.contains(KautzString::parse("010")));
  EXPECT_TRUE(r.contains(KautzString::parse("012")));
  EXPECT_TRUE(r.contains(KautzString::parse("020")));
  EXPECT_TRUE(r.contains(KautzString::parse("021")));
  EXPECT_FALSE(r.contains(KautzString::parse("101")));
  EXPECT_FALSE(r.contains(KautzString::parse("102")));
  EXPECT_FALSE(r.contains(KautzString::parse("201")));
}

TEST(KautzRegion, RejectsMalformedBounds) {
  EXPECT_THROW(region("021", "010"), CheckError);  // inverted
  EXPECT_THROW(KautzRegion(KautzString::parse("01"), KautzString::parse("010")),
               CheckError);  // length mismatch
}

TEST(KautzRegion, CommonPrefix) {
  EXPECT_EQ(region("0120", "0202").common_prefix().to_string(), "0");
  EXPECT_EQ(region("0120", "0121").common_prefix().to_string(), "012");
  EXPECT_EQ(region("0101", "2121").common_prefix().length(), 0u);
  EXPECT_EQ(region("0101", "0101").common_prefix().to_string(), "0101");
}

// The extension-based definition of prefix viability: some member starts
// with `prefix` iff its least extension is <= hi and its greatest >= lo.
bool extension_intersects(const KautzRegion& r, const KautzString& prefix) {
  return min_extension(prefix, r.length()) <= r.hi() &&
         max_extension(prefix, r.length()) >= r.lo();
}

// A string of s's length that shares its first `shared` digits with `s`
// and continues at random.
KautzString branch_off(const KautzString& s, std::size_t shared, Rng& rng) {
  KautzString out = s.prefix(shared);
  while (out.length() < s.length()) {
    const auto symbol = static_cast<std::uint8_t>(rng.next_index(kBase + 1u));
    if (out.can_append(symbol)) {
      out.push_back(symbol);
    }
  }
  return out;
}

TEST(KautzRegion, IntersectsPrefixBruteForce) {
  const auto all = enumerate(5);
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = all[rng.next_index(all.size())];
    auto b = all[rng.next_index(all.size())];
    if (b < a) {
      std::swap(a, b);
    }
    const KautzRegion r(a, b);
    // All prefixes up to full length.
    for (const auto& s : all) {
      for (std::size_t len = 0; len <= 5; ++len) {
        const auto prefix = s.prefix(len);
        bool expected = false;
        for (const auto& t : all) {
          if (prefix.is_prefix_of(t) && r.contains(t)) {
            expected = true;
            break;
          }
        }
        EXPECT_EQ(extension_intersects(r, prefix), expected);
        EXPECT_EQ(r.intersects_prefix(prefix), expected)
            << "region " << r.to_string() << " prefix " << prefix.to_string();
      }
    }
  }

  // Sampled regions too long to enumerate, against the extension-based
  // definition: lengths in one packed word, in two (the production
  // ObjectID length) and in all three. Bounds share a random-length
  // prefix, and probes branch off a bound at a random digit, so every
  // prefix length sees both verdicts.
  for (const std::size_t k : {std::size_t{20}, std::size_t{48},
                              KautzString::kMaxLength}) {
    std::size_t viable = 0;
    std::size_t missed = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const KautzString a = random_string(rng, k);
      KautzString b = branch_off(a, rng.next_index(k + 1), rng);
      const KautzRegion r(std::min(a, b), std::max(a, b));
      for (int probe = 0; probe < 12; ++probe) {
        const KautzString& bound = probe % 2 == 0 ? r.lo() : r.hi();
        const KautzString s =
            probe < 10 ? branch_off(bound, rng.next_index(k + 1), rng)
                       : random_string(rng, k);
        for (std::size_t len = 0; len <= k; ++len) {
          const KautzString prefix = s.prefix(len);
          const bool expected = extension_intersects(r, prefix);
          (expected ? viable : missed) += 1;
          EXPECT_EQ(r.intersects_prefix(prefix), expected)
              << "k " << k << " region " << r.to_string() << " prefix "
              << prefix.to_string();
        }
      }
    }
    EXPECT_GT(viable, 0u);
    EXPECT_GT(missed, 0u);
  }
}

TEST(KautzRegion, SplitCommonPrefixProperties) {
  const auto all = enumerate(5);
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = all[rng.next_index(all.size())];
    auto b = all[rng.next_index(all.size())];
    if (b < a) {
      std::swap(a, b);
    }
    const KautzRegion r(a, b);
    const auto parts = r.split_common_prefix();
    ASSERT_GE(parts.size(), 1u);
    ASSERT_LE(parts.size(), 3u);
    // Each part has a nonempty common prefix; parts are ordered, disjoint,
    // and cover the region exactly.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_GE(parts[i].common_prefix().length(), 1u);
      total += parts[i].size();
      if (i > 0) {
        EXPECT_LT(parts[i - 1].hi(), parts[i].lo());
      }
    }
    EXPECT_EQ(parts.front().lo(), r.lo());
    EXPECT_EQ(parts.back().hi(), r.hi());
    EXPECT_EQ(total, r.size());
  }
}

TEST(KautzRegion, SplitWholeSpaceYieldsThreeBlocks) {
  const auto lo = min_extension(KautzString{}, 4);
  const auto hi = max_extension(KautzString{}, 4);
  const auto parts = KautzRegion(lo, hi).split_common_prefix();
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].common_prefix().to_string(), "0");
  EXPECT_EQ(parts[1].common_prefix().to_string(), "1");
  EXPECT_EQ(parts[2].common_prefix().to_string(), "2");
}

TEST(KautzRegion, SingletonRegion) {
  const auto r = region("0101", "0101");
  EXPECT_EQ(r.size(), 1u);
  const auto parts = r.split_common_prefix();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], r);
}

}  // namespace
}  // namespace armada::kautz
