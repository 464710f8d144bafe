#include "kautz/kautz_space.h"

#include <limits>

#include "util/check.h"

namespace armada::kautz {

namespace {

static_assert(kBase == 2, "kBase^exp is a shift");

// kBase^exp with overflow checking.
std::uint64_t checked_pow(std::size_t exp) {
  ARMADA_CHECK_MSG(exp < 64, "Kautz space size overflows 64 bits");
  return std::uint64_t{1} << exp;
}

}  // namespace

std::uint64_t symbol_index(std::uint8_t symbol, std::uint8_t prev) {
  return symbol < prev ? symbol : static_cast<std::uint64_t>(symbol) - 1;
}

std::uint8_t index_symbol(std::uint64_t index, std::uint8_t prev) {
  return index < prev ? static_cast<std::uint8_t>(index)
                      : static_cast<std::uint8_t>(index + 1);
}

std::uint64_t space_size(std::size_t len) {
  if (len == 0) {
    return 1;
  }
  const std::uint64_t tail = checked_pow(len - 1);
  ARMADA_CHECK(tail <=
               std::numeric_limits<std::uint64_t>::max() / (kBase + 1u));
  return (kBase + 1u) * tail;
}

std::uint64_t rank(const KautzString& s) {
  ARMADA_CHECK(!s.empty());
  std::uint64_t r = s.digit(0) * checked_pow(s.length() - 1);
  for (std::size_t i = 1; i < s.length(); ++i) {
    r += symbol_index(s.digit(i), s.digit(i - 1)) *
         checked_pow(s.length() - 1 - i);
  }
  return r;
}

KautzString unrank(std::size_t len, std::uint64_t r) {
  ARMADA_CHECK(len >= 1);
  ARMADA_CHECK_MSG(r < space_size(len), "rank " << r << " out of range");
  std::vector<std::uint8_t> digits(len);
  std::uint64_t weight = checked_pow(len - 1);
  digits[0] = static_cast<std::uint8_t>(r / weight);
  r %= weight;
  for (std::size_t i = 1; i < len; ++i) {
    weight /= kBase;
    digits[i] = index_symbol(r / weight, digits[i - 1]);
    r %= weight;
  }
  return KautzString(digits);
}

KautzString min_extension(const KautzString& prefix, std::size_t k) {
  ARMADA_CHECK(prefix.length() <= k);
  KautzString out = prefix;
  while (out.length() < k) {
    // Least allowed symbol: 0 unless the last symbol is 0, then 1.
    out.push_back(out.empty() || out.back() != 0 ? 0 : 1);
  }
  return out;
}

KautzString max_extension(const KautzString& prefix, std::size_t k) {
  ARMADA_CHECK(prefix.length() <= k);
  KautzString out = prefix;
  while (out.length() < k) {
    out.push_back(out.empty() || out.back() != kBase
                      ? kBase
                      : static_cast<std::uint8_t>(kBase - 1));
  }
  return out;
}

bool is_space_min(const KautzString& s) {
  return s == min_extension(KautzString{}, s.length());
}

bool is_space_max(const KautzString& s) {
  return s == max_extension(KautzString{}, s.length());
}

KautzString successor(const KautzString& s) {
  ARMADA_CHECK_MSG(!is_space_max(s), "no successor of " << s.to_string());
  // Find the rightmost position whose symbol can be bumped to a larger
  // allowed symbol, bump it minimally, then fill with the minimal extension.
  for (std::size_t pos = s.length(); pos > 0; --pos) {
    const std::size_t i = pos - 1;
    const std::uint8_t cur = s.digit(i);
    for (std::uint8_t next = cur + 1; next <= kBase; ++next) {
      if (i > 0 && next == s.digit(i - 1)) {
        continue;
      }
      KautzString head = s.prefix(i);
      head.push_back(next);
      return min_extension(head, s.length());
    }
  }
  ARMADA_CHECK_MSG(false, "unreachable: " << s.to_string());
  return s;  // not reached
}

KautzString predecessor(const KautzString& s) {
  ARMADA_CHECK_MSG(!is_space_min(s), "no predecessor of " << s.to_string());
  for (std::size_t pos = s.length(); pos > 0; --pos) {
    const std::size_t i = pos - 1;
    const std::uint8_t cur = s.digit(i);
    for (int prev = static_cast<int>(cur) - 1; prev >= 0; --prev) {
      if (i > 0 && prev == s.digit(i - 1)) {
        continue;
      }
      KautzString head = s.prefix(i);
      head.push_back(static_cast<std::uint8_t>(prev));
      return max_extension(head, s.length());
    }
  }
  ARMADA_CHECK_MSG(false, "unreachable: " << s.to_string());
  return s;  // not reached
}

KautzString random_string(Rng& rng, std::size_t len) {
  KautzString out;
  for (std::size_t i = 0; i < len; ++i) {
    if (i == 0) {
      out.push_back(static_cast<std::uint8_t>(rng.next_u64(kBase + 1u)));
    } else {
      const auto idx = rng.next_u64(kBase);
      out.push_back(index_symbol(idx, out.back()));
    }
  }
  return out;
}

std::vector<KautzString> enumerate(std::size_t len) {
  std::vector<KautzString> out;
  const std::uint64_t n = space_size(len);
  out.reserve(n);
  if (len == 0) {
    out.emplace_back();
    return out;
  }
  for (std::uint64_t r = 0; r < n; ++r) {
    out.push_back(unrank(len, r));
  }
  return out;
}

}  // namespace armada::kautz
