#include "kautz/kautz_string.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace armada::kautz {
namespace {

TEST(KautzString, ParseAndPrint) {
  const auto s = KautzString::parse("0120");
  EXPECT_EQ(s.length(), 4u);
  EXPECT_EQ(s.to_string(), "0120");
  EXPECT_EQ(KautzString{}.to_string(), "<empty>");
}

TEST(KautzString, RejectsAdjacentRepeats) {
  EXPECT_THROW(KautzString::parse("011"), CheckError);
  EXPECT_THROW(KautzString::parse("00"), CheckError);
}

TEST(KautzString, RejectsDigitsAboveBase) {
  EXPECT_THROW(KautzString::parse("013"), CheckError);
}

TEST(KautzString, PushPopRespectInvariant) {
  KautzString s;
  s.push_back(1);
  EXPECT_FALSE(s.can_append(1));
  EXPECT_TRUE(s.can_append(0));
  EXPECT_TRUE(s.can_append(2));
  EXPECT_THROW(s.push_back(1), CheckError);
  s.push_back(2);
  EXPECT_EQ(s.to_string(), "12");
  s.pop_back();
  EXPECT_EQ(s.to_string(), "1");
}

TEST(KautzString, PrefixSuffixSlices) {
  const auto s = KautzString::parse("21012");
  EXPECT_EQ(s.prefix(3).to_string(), "210");
  EXPECT_EQ(s.suffix(2).to_string(), "12");
  EXPECT_EQ(s.prefix(0).length(), 0u);
  EXPECT_EQ(s.drop_front().to_string(), "1012");
}

TEST(KautzString, ConcatChecksJunction) {
  const auto a = KautzString::parse("012");
  EXPECT_EQ(a.concat(KautzString::parse("01")).to_string(), "01201");
  EXPECT_THROW(a.concat(KautzString::parse("21")), CheckError);
  EXPECT_EQ(a.concat(KautzString{}), a);
}

TEST(KautzString, PrefixSuffixPredicates) {
  const auto s = KautzString::parse("0120");
  EXPECT_TRUE(KautzString::parse("01").is_prefix_of(s));
  EXPECT_FALSE(KautzString::parse("02").is_prefix_of(s));
  EXPECT_TRUE(KautzString::parse("20").is_suffix_of(s));
  EXPECT_FALSE(KautzString::parse("12").is_suffix_of(s));
  EXPECT_TRUE(KautzString{}.is_prefix_of(s));
  EXPECT_TRUE(s.is_prefix_of(s));
}

TEST(KautzString, LongestSuffixPrefixAlignment) {
  // Suffix "12" of 212 is a prefix of "120...".
  const auto id = KautzString::parse("212");
  EXPECT_EQ(id.longest_suffix_prefix(KautzString::parse("1202")), 2u);
  EXPECT_EQ(id.longest_suffix_prefix(KautzString::parse("2021")), 1u);
  EXPECT_EQ(id.longest_suffix_prefix(KautzString::parse("0121")), 0u);
  // Whole-string alignment.
  EXPECT_EQ(id.longest_suffix_prefix(KautzString::parse("21201")), 3u);
}

TEST(KautzString, LexicographicOrder) {
  EXPECT_LT(KautzString::parse("010"), KautzString::parse("012"));
  EXPECT_LT(KautzString::parse("012"), KautzString::parse("020"));
  EXPECT_LT(KautzString::parse("01"), KautzString::parse("010"));  // prefix first
  EXPECT_EQ(KautzString::parse("120"), KautzString::parse("120"));
  EXPECT_GT(KautzString::parse("2"), KautzString::parse("1210"));
}

// Every string is three inline words of 2-bit digits over {0, 1, 2}: a
// digit 3 and a 97th digit are rejected, whichever way a string is built.
TEST(KautzString, RejectsDigitsAndLengthsPastTheInlineWords) {
  EXPECT_THROW(KautzString::parse("0123"), CheckError);
  EXPECT_THROW(KautzString(std::vector<std::uint8_t>{0, 1, 2, 3}),
               CheckError);
  KautzString two = KautzString::parse("2");
  EXPECT_FALSE(two.can_append(3));
  EXPECT_THROW(two.push_back(3), CheckError);

  std::vector<std::uint8_t> digits;
  for (std::size_t i = 0; i <= KautzString::kMaxLength; ++i) {
    digits.push_back(static_cast<std::uint8_t>(i % 2));
  }
  EXPECT_THROW(KautzString{digits}, CheckError);
  digits.pop_back();
  KautzString full(digits);  // 0101...01, exactly kMaxLength digits
  ASSERT_EQ(full.length(), KautzString::kMaxLength);
  for (std::uint8_t s = 0; s <= 2; ++s) {
    EXPECT_FALSE(full.can_append(s));
  }
  EXPECT_THROW(full.push_back(2), CheckError);
  EXPECT_EQ(full.length(), KautzString::kMaxLength);

  const KautzString head = full.prefix(KautzString::kMaxLength - 1);
  EXPECT_EQ(head.concat(KautzString::parse("1")), full);
  EXPECT_THROW(head.concat(KautzString::parse("12")), CheckError);
  EXPECT_THROW(full.concat(KautzString::parse("2")), CheckError);
}

// --- packed-vs-reference fuzz ---------------------------------------------
//
// The packed word representation must be observationally identical to the
// obvious digit-vector implementation. Every operation is replayed against
// a naive reference on plain std::vector<uint8_t>; lengths run up to the
// full three words, and cuts include the word boundaries 32 and 64. Built
// strings are also compared with the string the reference digits make:
// equality compares the words, so this checks their zero tails. Seeds
// follow the repo-wide fuzz contract: fixed CI seeds, or one
// ARMADA_FUZZ_SEED override to replay a failure exactly.

using Digits = std::vector<std::uint8_t>;

std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("ARMADA_FUZZ_SEED")) {
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr,
                   "invalid ARMADA_FUZZ_SEED '%s' (expected an unsigned "
                   "integer)\n",
                   env);
      std::exit(2);
    }
    return {seed};
  }
  return {21, 22, 23};
}

Digits random_digits(Rng& rng, std::size_t len) {
  Digits d;
  d.reserve(len);
  int prev = -1;
  for (std::size_t i = 0; i < len; ++i) {
    auto s = static_cast<std::uint8_t>(rng.next_index(kBase + 1u));
    if (s == prev) {
      s = static_cast<std::uint8_t>((s + 1u) % (kBase + 1u));
    }
    d.push_back(s);
    prev = s;
  }
  return d;
}

Digits ref_slice(const Digits& d, std::size_t pos, std::size_t len) {
  return Digits(d.begin() + static_cast<std::ptrdiff_t>(pos),
                d.begin() + static_cast<std::ptrdiff_t>(pos + len));
}

bool ref_is_prefix(const Digits& a, const Digits& b) {
  return a.size() <= b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool ref_is_suffix(const Digits& a, const Digits& b) {
  return a.size() <= b.size() &&
         std::equal(a.begin(), a.end(), b.end() - static_cast<std::ptrdiff_t>(a.size()));
}

std::size_t ref_lsp(const Digits& a, const Digits& b) {
  const std::size_t max_t = std::min(a.size(), b.size());
  for (std::size_t t = max_t; t > 0; --t) {
    if (std::equal(a.end() - static_cast<std::ptrdiff_t>(t), a.end(),
                   b.begin())) {
      return t;
    }
  }
  return 0;
}

int ref_cmp(const Digits& a, const Digits& b) {
  if (a < b) {
    return -1;
  }
  return a == b ? 0 : 1;
}

std::string ref_str(const Digits& d) {
  if (d.empty()) {
    return "<empty>";
  }
  std::string out;
  for (std::uint8_t x : d) {
    out += static_cast<char>('0' + x);
  }
  return out;
}

TEST(KautzStringFuzz, PackedMatchesDigitVectorReference) {
  for (std::uint64_t seed : fuzz_seeds()) {
    Rng rng(seed);
    for (int iter = 0; iter < 400; ++iter) {
      // Draws past kMaxLength are cut to it, so full strings are common.
      const std::size_t len =
          std::min<std::size_t>(rng.next_index(140), KautzString::kMaxLength);
      const Digits ra = random_digits(rng, len);
      const KautzString a(ra);

      ASSERT_EQ(a.length(), ra.size());
      ASSERT_EQ(a.digits(), ra);
      ASSERT_EQ(a.to_string(), ref_str(ra));
      for (std::size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(a.digit(i), ra[i]);
      }
      if (!ra.empty()) {
        ASSERT_EQ(a.front(), ra.front());
        ASSERT_EQ(a.back(), ra.back());
      }

      // Slices at random cut points and at the word boundaries.
      const std::size_t cuts[] = {rng.next_index(len + 1), 0, len,
                                  std::min<std::size_t>(32, len),
                                  std::min<std::size_t>(64, len)};
      for (std::size_t cut : cuts) {
        ASSERT_EQ(a.prefix(cut).digits(), ref_slice(ra, 0, cut));
        ASSERT_EQ(a.prefix(cut), KautzString(ref_slice(ra, 0, cut)));
        ASSERT_EQ(a.suffix(cut).digits(),
                  ref_slice(ra, len - cut, cut));
        ASSERT_EQ(a.suffix(cut), KautzString(ref_slice(ra, len - cut, cut)));
      }
      if (!ra.empty()) {
        ASSERT_EQ(a.drop_front().digits(), ref_slice(ra, 1, len - 1));
      }

      // Mutation round-trip.
      KautzString grown = a;
      Digits ref_grown = ra;
      for (int g = 0; g < 3; ++g) {
        const auto sym = static_cast<std::uint8_t>(rng.next_index(kBase + 1u));
        if (grown.can_append(sym)) {
          grown.push_back(sym);
          ref_grown.push_back(sym);
        }
        ASSERT_EQ(grown.digits(), ref_grown);
      }
      if (!ref_grown.empty()) {
        grown.pop_back();
        ref_grown.pop_back();
        ASSERT_EQ(grown.digits(), ref_grown);
        ASSERT_EQ(grown, KautzString(ref_grown));
      }

      // Binary relations against an independently drawn second string.
      const Digits rb = random_digits(
          rng,
          std::min<std::size_t>(rng.next_index(140), KautzString::kMaxLength));
      const KautzString b(rb);
      ASSERT_EQ(a.is_prefix_of(b), ref_is_prefix(ra, rb));
      ASSERT_EQ(a.is_suffix_of(b), ref_is_suffix(ra, rb));
      ASSERT_EQ(a.longest_suffix_prefix(b), ref_lsp(ra, rb));
      const auto ord = a <=> b;
      ASSERT_EQ(ord < 0 ? -1 : (ord == 0 ? 0 : 1), ref_cmp(ra, rb));
      ASSERT_EQ(a == b, ra == rb);

      // Shared-prefix pairs stress the word-aligned compare tails.
      if (len >= 2) {
        const std::size_t head = 1 + rng.next_index(len - 1);
        KautzString c = a.prefix(head);
        Digits rc = ref_slice(ra, 0, head);
        const auto sym = static_cast<std::uint8_t>(rng.next_index(kBase + 1u));
        if (c.can_append(sym)) {
          c.push_back(sym);
          rc.push_back(sym);
        }
        const auto ord2 = a <=> c;
        ASSERT_EQ(ord2 < 0 ? -1 : (ord2 == 0 ? 0 : 1), ref_cmp(ra, rc));
        ASSERT_EQ(a.is_prefix_of(c), ref_is_prefix(ra, rc));
      }

      // Concat through a junction-respecting bridge, cut to fit.
      if (!ra.empty() && !rb.empty()) {
        Digits bridge = rb;
        if (bridge.front() == ra.back()) {
          bridge.erase(bridge.begin());
        }
        bridge.resize(std::min(bridge.size(),
                               KautzString::kMaxLength - ra.size()));
        if (!bridge.empty()) {
          const KautzString joined = a.concat(KautzString(bridge));
          Digits ref_joined = ra;
          ref_joined.insert(ref_joined.end(), bridge.begin(), bridge.end());
          ASSERT_EQ(joined.digits(), ref_joined);
          ASSERT_EQ(joined.length(), ra.size() + bridge.size());
          ASSERT_EQ(joined, KautzString(ref_joined));
        }
      }

      // Equal strings compare equal whichever way they were built.
      KautzString rebuilt;
      for (std::uint8_t x : ra) {
        rebuilt.push_back(x);
      }
      ASSERT_TRUE(a == rebuilt);
    }
  }
}

}  // namespace
}  // namespace armada::kautz
