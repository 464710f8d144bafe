// Result types of Armada's queries.
#pragma once

#include <cstdint>
#include <vector>

#include "fissione/types.h"
#include "sim/metrics.h"

namespace armada::core {

/// Outcome of a PIRA/MIRA query.
struct RangeQueryResult {
  sim::QueryStats stats;
  /// Peers that received the query and scanned local storage, in arrival
  /// order. Each destination receives the query exactly once.
  std::vector<fissione::PeerId> destinations;
  /// Payload handles of matching objects.
  std::vector<std::uint64_t> matches;
};

/// Outcome of a top-k query.
struct TopKResult {
  sim::QueryStats stats;
  /// Matching handles, sorted by descending attribute value, at most k.
  std::vector<std::uint64_t> handles;
};

/// Outcome of a k-nearest-neighbor query.
struct KnnResult {
  sim::QueryStats stats;
  /// Handles of the k nearest objects, ascending by distance to the query.
  std::vector<std::uint64_t> handles;
};

/// Outcome of an in-network range aggregate.
struct AggregateResult {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;   ///< meaningful iff count > 0
  double max = 0.0;   ///< meaningful iff count > 0
  double mean() const;

  sim::QueryStats stats;          ///< forward-phase metrics (PIRA)
  std::uint64_t reply_messages = 0;  ///< folded replies (= forward edges)
  /// What a non-aggregating scheme would ship: one record per match.
  std::uint64_t records_avoided = 0;
};

}  // namespace armada::core
