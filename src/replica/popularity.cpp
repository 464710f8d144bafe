#include "replica/popularity.h"

#include <iterator>

#include "util/check.h"

namespace armada::replica {

namespace {

// Counters below this are dead weight: drop them in the sweep so the map
// stays proportional to the *recently* queried regions, not all history.
constexpr double kDropBelow = 1e-3;

}  // namespace

PopularityTracker::PopularityTracker(std::uint64_t interval)
    : interval_(interval) {
  ARMADA_CHECK(interval_ > 0);
}

bool PopularityTracker::tick() {
  ++tick_;
  if (tick_ % interval_ != 0) {
    return false;
  }
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second *= kDecay;
    it = it->second < kDropBelow ? counts_.erase(it) : std::next(it);
  }
  return true;
}

double PopularityTracker::bump(const kautz::KautzString& region) {
  return counts_[region] += 1.0;
}

double PopularityTracker::count(const kautz::KautzString& region) const {
  const auto it = counts_.find(region);
  return it == counts_.end() ? 0.0 : it->second;
}

}  // namespace armada::replica
