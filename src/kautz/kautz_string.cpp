// Cold and bulk KautzString operations; the slicing/alignment/ordering hot
// path is inline in kautz_string.h.
#include "kautz/kautz_string.h"

#include <ostream>
#include <string_view>

namespace armada::kautz {

KautzString::KautzString(const std::vector<std::uint8_t>& digits)
    : KautzString(Raw{}, digits.size()) {
  ARMADA_CHECK_MSG(digits.size() <= kMaxLength,
                   digits.size() << " digits exceed " << kMaxLength);
  // Validate before packing: a digit wider than kBits would be truncated
  // silently. Two passes — the validation loop vectorizes (byte compares
  // against kBase and against the shifted-by-one sequence), the packing loop
  // stores one word per 32 digits.
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    ARMADA_CHECK_MSG(digits[i] <= kBase, "digit " << int(digits[i])
                                                   << " exceeds base "
                                                   << int(kBase));
    if (i > 0) {
      ARMADA_CHECK_MSG(digits[i] != digits[i - 1],
                       "repeated symbol at position " << i);
    }
  }
  std::uint64_t cur = 0;
  std::size_t w = 0;
  std::size_t off = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cur |= static_cast<std::uint64_t>(digits[i]) << off;
    off += kBits;
    if (off == 64) {
      words_[w++] = cur;
      cur = 0;
      off = 0;
    }
  }
  if (off != 0) {
    words_[w] = cur;
  }
}

KautzString KautzString::parse(std::string_view text) {
  std::vector<std::uint8_t> digits;
  digits.reserve(text.size());
  for (char c : text) {
    ARMADA_CHECK_MSG(c >= '0' && c <= '9', "bad digit '" << c << "'");
    digits.push_back(static_cast<std::uint8_t>(c - '0'));
  }
  return KautzString(digits);
}

void KautzString::set_digit(std::size_t i, std::uint8_t symbol) {
  const std::size_t w = i / kDigitsPerWord;
  const std::size_t r = i % kDigitsPerWord * kBits;
  words_[w] = (words_[w] & ~(low_mask(kBits) << r)) |
              (static_cast<std::uint64_t>(symbol) << r);
}

std::vector<std::uint8_t> KautzString::digits() const {
  std::vector<std::uint8_t> out(len_);
  for (std::size_t i = 0; i < len_; ++i) {
    out[i] = static_cast<std::uint8_t>(chunk(i, 1));
  }
  return out;
}

void KautzString::push_back(std::uint8_t symbol) {
  ARMADA_CHECK_MSG(can_append(symbol),
                   "cannot append " << int(symbol) << " to " << to_string());
  ++len_;
  set_digit(len_ - 1, symbol);
}

void KautzString::pop_back() {
  ARMADA_CHECK(len_ > 0);
  set_digit(len_ - 1, 0);  // keep the zero-tail invariant
  --len_;
}

std::string KautzString::to_string() const {
  if (len_ == 0) {
    return "<empty>";
  }
  std::string out;
  out.reserve(len_);
  for (std::size_t i = 0; i < len_; ++i) {
    out.push_back(static_cast<char>('0' + chunk(i, 1)));
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const KautzString& s) {
  return os << s.to_string();
}

}  // namespace armada::kautz
