// ChurnHarness: Armada range queries racing FISSIONE repair.
//
// Armada's queries are layered strictly over the DHT's routing
// interfaces, so they see the post-surgery overlay the instant a membership
// event executes. This harness reintroduces what a real deployment would
// observe between the event and the end of its repair exchange (see
// fissione::ChurnDriver):
//
//  * Objects still in flight between stores are dropped from the answer —
//    the query observably *misses* them (the answer stays a subset of the
//    live ground truth; it never resurrects dropped objects).
//  * Every stale destination peer the query touches forces a detour: the
//    first delivery chased a stale pointer and is retried, costing one
//    extra message, one extra hop of delay, and one extra link charge.
//  * A query that exhausts the driver's detour budget fails observably:
//    no matches, failed = true.
//
// Outcomes are recorded into the driver's sim::ChurnStats, making
// "queries launched inside stale windows and how they fared" a first-class
// measurement next to QueryStats.
#pragma once

#include <cstdint>
#include <vector>

#include "armada/armada.h"
#include "fissione/churn_driver.h"
#include "sim/metrics.h"

namespace armada::core {

class ChurnHarness {
 public:
  /// `index` must be layered over the driver's network. Single-attribute
  /// indexes only (the stale-peer intersection test reads attribute 0).
  ChurnHarness(ArmadaIndex& index, fissione::ChurnDriver& driver);

  ChurnHarness(const ChurnHarness&) = delete;
  ChurnHarness& operator=(const ChurnHarness&) = delete;

  struct RangeOutcome {
    /// Query cost including stale-window detour surcharges.
    sim::QueryStats stats;
    /// Matching handles, minus in-flight objects; empty when failed.
    std::vector<std::uint64_t> matches;
    bool stale = false;           ///< touched at least one open stale window
    std::uint64_t detours = 0;
    std::uint64_t missed = 0;     ///< in-flight matches dropped from the answer
    bool failed = false;
  };

  /// Range query issued at the driver's current simulated time.
  RangeOutcome range_query(fissione::PeerId issuer, double lo, double hi);

  const fissione::ChurnDriver& driver() const { return driver_; }

 private:
  ArmadaIndex& index_;
  fissione::ChurnDriver& driver_;
};

}  // namespace armada::core
