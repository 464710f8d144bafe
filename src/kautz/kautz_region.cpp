#include "kautz/kautz_region.h"

#include "kautz/kautz_space.h"
#include "util/check.h"

namespace armada::kautz {

KautzRegion::KautzRegion(KautzString lo, KautzString hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  ARMADA_CHECK(lo_.length() == hi_.length());
  ARMADA_CHECK(!lo_.empty());
  ARMADA_CHECK_MSG(lo_ <= hi_, "inverted region <" << lo_.to_string() << ", "
                                                   << hi_.to_string() << ">");
}

bool KautzRegion::contains(const KautzString& s) const {
  ARMADA_CHECK(s.length() == length());
  return lo_ <= s && s <= hi_;
}

std::uint64_t KautzRegion::size() const { return rank(hi_) - rank(lo_) + 1; }

KautzString KautzRegion::common_prefix() const {
  std::size_t n = 0;
  while (n < length() && lo_.digit(n) == hi_.digit(n)) {
    ++n;
  }
  return lo_.prefix(n);
}

bool KautzRegion::intersects_prefix(const KautzString& prefix) const {
  ARMADA_CHECK(prefix.length() <= length());
  // Cutting two equal-length strings to one length keeps their order, and
  // lo and hi are members themselves: some member starts with `prefix`
  // exactly when it lies between the bounds cut to its length.
  const std::size_t n = prefix.length();
  return lo_.prefix(n) <= prefix && prefix <= hi_.prefix(n);
}

std::vector<KautzRegion> KautzRegion::split_common_prefix() const {
  if (lo_.digit(0) == hi_.digit(0)) {
    return {*this};
  }
  std::vector<KautzRegion> parts;
  // Head: strings sharing lo's first symbol.
  parts.emplace_back(lo_, max_extension(lo_.prefix(1), length()));
  // Middle: whole first-symbol blocks strictly between lo's and hi's.
  for (std::uint8_t c = lo_.digit(0) + 1; c < hi_.digit(0); ++c) {
    KautzString head;
    head.push_back(c);
    parts.emplace_back(min_extension(head, length()),
                       max_extension(head, length()));
  }
  // Tail: strings sharing hi's first symbol.
  parts.emplace_back(min_extension(hi_.prefix(1), length()), hi_);
  return parts;
}

std::string KautzRegion::to_string() const {
  std::string out = "<";
  out += lo_.to_string();
  out += ", ";
  out += hi_.to_string();
  out += '>';
  return out;
}

}  // namespace armada::kautz
