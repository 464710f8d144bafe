// PopularityTracker: decayed per-region query-frequency counters.
//
// The query layer charges every search class to the length-g Kautz prefix
// it targets; the tracker keeps an exponentially decayed count per prefix.
// Its clock is the *query tick* (one per query), not simulated time — the
// synchronous query wrappers run each query on a fresh simulator, so sim
// time never accumulates across a workload. Every `interval` ticks all
// counters are multiplied by kDecay and vanishing ones are dropped, so a
// region's steady-state count tracks its recent query share and cooled
// regions fall back below the teardown threshold.
#pragma once

#include <cstdint>
#include <map>

#include "kautz/kautz_string.h"

namespace armada::replica {

class PopularityTracker {
 public:
  /// Factor every counter is multiplied by once per interval.
  static constexpr double kDecay = 0.5;

  explicit PopularityTracker(std::uint64_t interval);

  /// Advance the clock one query; returns true when this tick ran the
  /// periodic decay sweep (the caller's cue to re-check cooled regions).
  bool tick();

  /// Charge one query hit to `region`; returns its new decayed count.
  double bump(const kautz::KautzString& region);

  double count(const kautz::KautzString& region) const;
  std::uint64_t now() const { return tick_; }

  /// Counters in lexicographic region order (determinism seam).
  const std::map<kautz::KautzString, double>& counters() const {
    return counts_;
  }

 private:
  std::uint64_t interval_;
  std::uint64_t tick_ = 0;
  std::map<kautz::KautzString, double> counts_;
};

}  // namespace armada::replica
