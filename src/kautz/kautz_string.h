// Kautz strings: the identifier alphabet of FISSIONE and Armada.
//
// A Kautz string of base d is a sequence over the alphabet {0, 1, ..., d}
// (d+1 symbols) in which adjacent symbols differ (paper §3). KautzSpace(d,k)
// is the set of all such strings of length k. FISSIONE PeerIDs are
// variable-length base-2 Kautz strings and ObjectIDs are fixed-length ones,
// so the base is one constant, kBase = 2: the alphabet is {0, 1, 2} and no
// string, tree or space carries a base of its own.
//
// Representation: digits are bit-packed, 2 bits each, into three inline
// 64-bit words, so a string is a trivially copyable 32-byte value: the
// strings on the routing hot path (PeerIDs, ObjectIDs, and their
// shift-routing concatenations) never touch the heap and all slicing,
// alignment, and ordering operations are word-sized shift/mask loops. That
// caps the length at kMaxLength = 96 digits; Armada uses 48-digit ObjectIDs
// and PeerIDs under 2 log2 N digits.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace armada::kautz {

/// The Kautz base d: every string is over the alphabet {0, 1, ..., kBase}.
inline constexpr std::uint8_t kBase = 2;

/// Immutable-by-convention Kautz string with checked invariants: every digit
/// is <= kBase and adjacent digits differ. The empty string is valid (it is
/// the root label of the partition tree and a neutral prefix).
class KautzString {
 public:
  /// Longest string the inline words hold (32 digits per word).
  static constexpr std::size_t kMaxLength = 96;

  /// The empty string — non-explicit so aggregate members ({} init of
  /// StoredObject and friends) default cleanly.
  KautzString() = default;

  /// Build from digits; throws CheckError if not a valid Kautz string or
  /// longer than kMaxLength.
  explicit KautzString(const std::vector<std::uint8_t>& digits);

  /// Parse a textual form such as "0120" (digits '0'..'2'). Throws on
  /// malformed input or Kautz-invariant violation.
  static KautzString parse(std::string_view text);

  std::size_t length() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t digit(std::size_t i) const;
  std::uint8_t front() const;
  std::uint8_t back() const;
  /// Unpacked digit bytes (materialized; the packed words are the storage).
  std::vector<std::uint8_t> digits() const;

  /// Append one symbol; it must differ from back() and be <= kBase, and
  /// the string must be shorter than kMaxLength.
  void push_back(std::uint8_t symbol);
  void pop_back();

  /// Leading/trailing slices (always valid Kautz strings themselves).
  KautzString prefix(std::size_t len) const;
  KautzString suffix(std::size_t len) const;
  /// Drop the first symbol (the left-shift used by Kautz-graph edges).
  KautzString drop_front() const;

  /// Concatenation; the junction symbols must differ and the result must
  /// fit in kMaxLength digits.
  KautzString concat(const KautzString& tail) const;
  /// True when appending `symbol` keeps the string valid (false at
  /// kMaxLength).
  bool can_append(std::uint8_t symbol) const;

  bool is_prefix_of(const KautzString& other) const;
  bool is_suffix_of(const KautzString& other) const;
  /// Length of the longest suffix of *this that is a prefix of `other`.
  /// This is the alignment used by FISSIONE's shift routing.
  std::size_t longest_suffix_prefix(const KautzString& other) const;

  /// Lexicographic order (the paper's relation "preceq"); a proper prefix
  /// sorts before its extensions.
  std::strong_ordering operator<=>(const KautzString& other) const;
  /// Zero tails make the stored words exact, so equal strings have equal
  /// members.
  bool operator==(const KautzString& other) const = default;

  std::string to_string() const;

 private:
  static constexpr std::size_t kBits = 2;  ///< bits per digit
  static_assert(kBase < (1u << kBits), "every digit fits in kBits");
  static constexpr std::size_t kDigitsPerWord = 64 / kBits;
  static constexpr std::size_t kWords = kMaxLength / kDigitsPerWord;

  struct Raw {};  // tag: zeroed storage for `len` digits, no checks

  KautzString(Raw, std::size_t len) : len_(static_cast<std::uint32_t>(len)) {}

  /// Mask selecting the low `nbits` bits (nbits <= 64).
  static constexpr std::uint64_t low_mask(std::size_t nbits) {
    return nbits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nbits) - 1;
  }

  std::size_t words_used() const { return (len_ * kBits + 63u) / 64u; }
  /// Low `count` digits starting at digit `pos`, as the low bits of a word.
  /// Requires count <= kDigitsPerWord and pos + count <= length().
  std::uint64_t chunk(std::size_t pos, std::size_t count) const;
  void set_digit(std::size_t i, std::uint8_t symbol);
  /// Digit-range equality: this[ai .. ai+n) == other[bi .. bi+n).
  static bool equal_slices(const KautzString& a, std::size_t ai,
                           const KautzString& b, std::size_t bi,
                           std::size_t n);

  std::uint32_t len_ = 0;
  /// Digit i lives in word i / kDigitsPerWord at bit offset
  /// (i % kDigitsPerWord) * kBits; every bit past the last digit is zero,
  /// so word compares are exact.
  std::array<std::uint64_t, kWords> words_{};
};

static_assert(std::is_trivially_copyable_v<KautzString> &&
                  sizeof(KautzString) == 32,
              "KautzString is a plain 32-byte value");

// --- inline hot path --------------------------------------------------------
//
// Slicing, alignment, and ordering are the inner loop of shift routing and
// region matching; they are defined here so call sites compile down to the
// register-level shift/mask sequences with no out-of-line call.

inline std::uint64_t KautzString::chunk(std::size_t pos,
                                        std::size_t count) const {
  const std::size_t bitpos = pos * kBits;
  const std::size_t w = bitpos / 64u;
  const std::size_t r = bitpos % 64u;
  std::uint64_t v = words_[w] >> r;
  if (r != 0 && w + 1 < kWords) {
    v |= words_[w + 1] << (64 - r);
  }
  return v & low_mask(count * kBits);
}

inline std::uint8_t KautzString::digit(std::size_t i) const {
  ARMADA_CHECK_MSG(i < len_, "index " << i << " out of range");
  return static_cast<std::uint8_t>(chunk(i, 1));
}

inline std::uint8_t KautzString::front() const {
  ARMADA_CHECK(len_ > 0);
  return static_cast<std::uint8_t>(chunk(0, 1));
}

inline std::uint8_t KautzString::back() const {
  ARMADA_CHECK(len_ > 0);
  return static_cast<std::uint8_t>(chunk(len_ - 1, 1));
}

inline bool KautzString::can_append(std::uint8_t symbol) const {
  if (symbol > kBase || len_ == kMaxLength) {
    return false;
  }
  return len_ == 0 || back() != symbol;
}

inline bool KautzString::equal_slices(const KautzString& a, std::size_t ai,
                                      const KautzString& b, std::size_t bi,
                                      std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::size_t count = std::min(kDigitsPerWord, n - i);
    if (a.chunk(ai + i, count) != b.chunk(bi + i, count)) {
      return false;
    }
    i += count;
  }
  return true;
}

inline bool KautzString::is_prefix_of(const KautzString& other) const {
  if (len_ > other.len_) {
    return false;
  }
  return equal_slices(*this, 0, other, 0, len_);
}

inline bool KautzString::is_suffix_of(const KautzString& other) const {
  if (len_ > other.len_) {
    return false;
  }
  return equal_slices(*this, 0, other, other.len_ - len_, len_);
}

inline std::size_t KautzString::longest_suffix_prefix(
    const KautzString& other) const {
  const std::size_t max_len = std::min<std::size_t>(len_, other.len_);
  if (max_len == 0) {
    return 0;  // chunk(len_, 0) would index past a full string's words
  }
  if (max_len <= kDigitsPerWord) {
    // Single-word fast path (every PeerID: <= 32 digits per word).
    // `tail` holds this string's last max_len digits LSB-first, so candidate
    // t's suffix is tail >> ((max_len - t) digits) — already exactly t
    // digits, no mask needed; `other`'s t-digit prefix is head masked down.
    const std::uint64_t tail = chunk(len_ - max_len, max_len);
    const std::uint64_t head = other.chunk(0, max_len);
    for (std::size_t t = max_len; t > 0; --t) {
      if ((tail >> ((max_len - t) * kBits)) == (head & low_mask(t * kBits))) {
        return t;
      }
    }
    return 0;
  }
  for (std::size_t len = max_len; len > 0; --len) {
    if (equal_slices(*this, len_ - len, other, 0, len)) {
      return len;
    }
  }
  return 0;
}

inline std::strong_ordering KautzString::operator<=>(
    const KautzString& other) const {
  // Whole-word scan: both zero tails make the stored words exact, so the
  // lowest differing bit identifies the first differing digit directly
  // (digits are packed LSB-first in position order). A divergence at a digit
  // index past the shorter string's end is that zero tail against the longer
  // string's real digits — the common prefix matched, length decides.
  const std::size_t common = std::min<std::size_t>(len_, other.len_);
  const std::uint64_t* a = words_.data();
  const std::uint64_t* b = other.words_.data();
  if ((std::uint32_t{len_} | other.len_) <= kDigitsPerWord) {
    // Single-word fast path (every PeerID): one xor decides.
    const std::uint64_t x = a[0] ^ b[0];
    if (x != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(x));
      const std::size_t shift = bit / kBits * kBits;
      if (bit / kBits < common) {
        return ((a[0] >> shift) & low_mask(kBits)) <=>
               ((b[0] >> shift) & low_mask(kBits));
      }
    }
    return std::uint32_t{len_} <=> std::uint32_t{other.len_};
  }
  const std::size_t nw = std::min(words_used(), other.words_used());
  for (std::size_t i = 0; i < nw; ++i) {
    if (a[i] != b[i]) {
      const auto bit =
          static_cast<std::size_t>(std::countr_zero(a[i] ^ b[i]));
      const std::size_t shift = bit / kBits * kBits;
      const std::size_t d = i * kDigitsPerWord + bit / kBits;
      if (d >= common) {
        break;
      }
      const std::uint64_t da = (a[i] >> shift) & low_mask(kBits);
      const std::uint64_t db = (b[i] >> shift) & low_mask(kBits);
      return da <=> db;
    }
  }
  return std::uint32_t{len_} <=> std::uint32_t{other.len_};
}

inline KautzString KautzString::prefix(std::size_t len) const {
  ARMADA_CHECK(len <= len_);
  KautzString out(Raw{}, len);
  const std::size_t nw = out.words_used();
  for (std::size_t i = 0; i < nw; ++i) {
    out.words_[i] = words_[i];
  }
  if (nw > 0) {
    const std::size_t tail = len - (nw - 1) * kDigitsPerWord;
    out.words_[nw - 1] &= low_mask(tail * kBits);
  }
  return out;
}

inline KautzString KautzString::suffix(std::size_t len) const {
  ARMADA_CHECK(len <= len_);
  KautzString out(Raw{}, len);
  const std::size_t shift = (len_ - len) * kBits;
  const std::size_t ws = shift / 64u;
  const std::size_t rs = shift % 64u;
  const std::size_t nw = out.words_used();
  for (std::size_t i = 0; i < nw; ++i) {
    std::uint64_t v = words_[i + ws] >> rs;
    if (rs != 0 && i + ws + 1 < kWords) {
      v |= words_[i + ws + 1] << (64 - rs);
    }
    out.words_[i] = v;
  }
  if (nw > 0) {
    const std::size_t tail = len - (nw - 1) * kDigitsPerWord;
    out.words_[nw - 1] &= low_mask(tail * kBits);
  }
  return out;
}

inline KautzString KautzString::drop_front() const {
  ARMADA_CHECK(len_ > 0);
  return suffix(len_ - 1);
}

inline KautzString KautzString::concat(const KautzString& tail) const {
  if (len_ > 0 && tail.len_ > 0) {
    ARMADA_CHECK_MSG(back() != tail.front(),
                     "repeated symbol at the concat junction");
  }
  ARMADA_CHECK_MSG(len_ + tail.len_ <= kMaxLength,
                   "concat of " << len_ << " and " << tail.len_
                                << " digits exceeds " << kMaxLength);
  KautzString out = *this;
  out.len_ = len_ + tail.len_;
  const std::size_t shift = std::size_t{len_} * kBits;
  const std::size_t ws = shift / 64u;
  const std::size_t rs = shift % 64u;
  for (std::size_t i = 0; i < tail.words_used(); ++i) {
    out.words_[i + ws] |= tail.words_[i] << rs;
    if (rs != 0 && i + ws + 1 < kWords) {
      out.words_[i + ws + 1] |= tail.words_[i] >> (64 - rs);
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const KautzString& s);

}  // namespace armada::kautz
