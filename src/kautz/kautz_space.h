// Combinatorics of KautzSpace(kBase, k): counting, ranking, extensions.
//
// Rank/unrank use a mixed-radix encoding: the first symbol has kBase+1
// choices, every later symbol has kBase choices (any symbol except its
// predecessor), indexed in increasing symbol order. This makes lexicographic
// rank a plain positional number, which the tests and region-size
// computations rely on. The space's only parameter is the length k.
#pragma once

#include <cstdint>
#include <vector>

#include "kautz/kautz_string.h"
#include "util/rng.h"

namespace armada::kautz {

/// |KautzSpace(kBase, len)| = (kBase+1) * kBase^(len-1); 1 for len == 0.
/// Requires the result to fit in 64 bits (len <= 63).
std::uint64_t space_size(std::size_t len);

/// Index of `symbol` among the allowed successors of `prev` (all symbols
/// except prev, in increasing order), and its inverse. These define the
/// child ordering of the partition tree and the mixed-radix rank encoding.
std::uint64_t symbol_index(std::uint8_t symbol, std::uint8_t prev);
std::uint8_t index_symbol(std::uint64_t index, std::uint8_t prev);

/// Lexicographic rank of `s` within KautzSpace(kBase, s.length()).
std::uint64_t rank(const KautzString& s);

/// Inverse of rank(). Requires r < space_size(len).
KautzString unrank(std::size_t len, std::uint64_t r);

/// Lexicographically smallest / largest length-k string with given prefix.
/// The smallest appends the least allowed symbol at each step, the largest
/// the greatest. Requires prefix.length() <= k.
KautzString min_extension(const KautzString& prefix, std::size_t k);
KautzString max_extension(const KautzString& prefix, std::size_t k);

/// Next / previous string of the same length in lexicographic order.
/// Throws CheckError at the ends of the space.
KautzString successor(const KautzString& s);
KautzString predecessor(const KautzString& s);

/// True iff `s` is the first / last string of its length.
bool is_space_min(const KautzString& s);
bool is_space_max(const KautzString& s);

/// Uniform sample from KautzSpace(kBase, len); works for any len up to
/// KautzString::kMaxLength (digit-wise, no 64-bit restriction).
KautzString random_string(Rng& rng, std::size_t len);

/// All strings of KautzSpace(kBase, len) in lexicographic order (tests
/// only; intended for small len).
std::vector<KautzString> enumerate(std::size_t len);

}  // namespace armada::kautz
