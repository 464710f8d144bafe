// Unified metrics registry: one namespace of named counters and gauges
// that the repo's four cumulative stats currencies (net::CongestionStats,
// sim::ChurnStats, replica::ReplicaStats, rebalance::RebalanceStats)
// publish into (see obs/publish.h), and that the periodic Sampler
// (obs/sampler.h) snapshots into time series.
//
// Instruments are created on first touch and iterate in name order, so
// exports are deterministic. Kinds are sticky: touching an existing name
// with a different kind is a programming error and CHECK-fails.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/check.h"

namespace armada::obs {

class Registry {
 public:
  /// Sets a counter to an absolute cumulative value (how the stats structs
  /// publish); CHECK-fails if it would move backwards.
  void count(std::string_view name, double total);
  /// Gauges are point-in-time values; `set` overwrites.
  void set(std::string_view name, double value);

  /// Counter/gauge value; 0 for unknown names.
  double value(std::string_view name) const;
  bool contains(std::string_view name) const {
    return instruments_.find(name) != instruments_.end();
  }
  std::size_t size() const { return instruments_.size(); }
  void clear() { instruments_.clear(); }

  /// Visits every instrument in name order:
  /// fn(const std::string& name, double value).
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (const auto& [name, ins] : instruments_) {
      fn(name, ins.value);
    }
  }

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct Instrument {
    Kind kind = Kind::kCounter;
    double value = 0.0;
  };

  Instrument& touch(std::string_view name, Kind kind);

  // std::less<> enables string_view lookups without allocation.
  std::map<std::string, Instrument, std::less<>> instruments_;
};

}  // namespace armada::obs
