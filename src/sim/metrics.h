// Query metrics matching the paper's evaluation (§4.3.3).
#pragma once

#include <cstdint>

#include "util/stats.h"

namespace armada::sim {

/// Per-query measurements.
struct QueryStats {
  /// Total overlay messages produced by the query.
  std::uint64_t messages = 0;
  /// Hops until the last destination peer received the query.
  double delay = 0.0;
  /// Simulated time until the last destination peer received the query,
  /// charged per link by the network's net::LatencyModel. Under the default
  /// ConstantHop model this equals `delay` exactly.
  double latency = 0.0;
  /// Time the query's messages spent in the queueing network beyond pure
  /// propagation (service waits, coalescing windows, link transmission),
  /// summed over messages. Exactly zero without queueing and under the
  /// zero-queue config.
  double queue_delay = 0.0;
  /// Payload bytes the query's transmissions put on links; zero while
  /// messages are unsized (no queueing config installed).
  std::uint64_t bytes_on_wire = 0;
  /// Fraction of the query's intended coverage actually served: 1.0 for a
  /// full answer, reached / (reached + shed) destinations when overload
  /// admission control degraded the query into a partial answer, 0.0 when
  /// the whole query was shed. Every overlay and bench reports partial
  /// answers through this one field.
  double coverage = 1.0;
  /// Branches / hops refused admission by overload control.
  std::uint64_t shed = 0;
  /// Destination peers that intersect the query and scan local data.
  std::uint64_t dest_peers = 0;
  /// Matching objects found.
  std::uint64_t results = 0;

  /// Messages / Destpeers (paper metric MesgRatio).
  double mesg_ratio() const;
  /// (Messages - logN) / (Destpeers - 1) (paper metric IncreRatio);
  /// meaningful only when dest_peers > 1.
  double incre_ratio(double log_n) const;

  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

/// Aggregates QueryStats across a workload.
class MetricSet {
 public:
  explicit MetricSet(double log_n) : log_n_(log_n) {}

  void add(const QueryStats& q);

  const OnlineStats& delay() const { return delay_; }
  const OnlineStats& latency() const { return latency_; }
  const OnlineStats& queue_delay() const { return queue_delay_; }
  const OnlineStats& bytes_on_wire() const { return bytes_; }
  /// Per-query coverage fraction (mean 1.0 while nothing is shed) and the
  /// admission sheds, aggregated alongside the paper metrics so every bench
  /// reports partial answers uniformly.
  const OnlineStats& coverage() const { return coverage_; }
  const OnlineStats& shed() const { return shed_; }
  const OnlineStats& messages() const { return messages_; }
  const OnlineStats& dest_peers() const { return dest_peers_; }
  const OnlineStats& results() const { return results_; }
  const OnlineStats& mesg_ratio() const { return mesg_ratio_; }
  const OnlineStats& incre_ratio() const { return incre_ratio_; }
  /// Tail behaviour of the two delay metrics (p50/p95/p99): with
  /// heterogeneous link latencies the mean hides the slow-link tail that
  /// bounds user-visible response time.
  const Percentiles& delay_percentiles() const { return delay_pct_; }
  const Percentiles& latency_percentiles() const { return latency_pct_; }

 private:
  double log_n_;
  OnlineStats delay_;
  OnlineStats latency_;
  OnlineStats queue_delay_;
  OnlineStats bytes_;
  OnlineStats coverage_;
  OnlineStats shed_;
  Percentiles delay_pct_;
  Percentiles latency_pct_;
  OnlineStats messages_;
  OnlineStats dest_peers_;
  OnlineStats results_;
  OnlineStats mesg_ratio_;
  OnlineStats incre_ratio_;
};

}  // namespace armada::sim
