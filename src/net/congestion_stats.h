// CongestionStats: the network-side result currency of the queueing
// subsystem — the congestion analogue of sim::QueryStats (query plane) and
// sim::ChurnStats (repair plane).
//
// One instance aggregates everything a transport's queueing network
// observed: messages and the link departures (batches) that carried them,
// payload bytes on the wire, the queueing delay each message accrued beyond
// pure propagation, per-node backlog peaks, accumulated service busy time,
// per-class traffic accounting, and the admission-shed counter. Every
// overlay surfaces its transport's instance through
// overlay::RoutedOverlay::congestion(), so benches read hot-node and
// hot-link pressure in the same way for all four DHTs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace armada::net {

/// Traffic classes priced by the queueing network. Under the default
/// (FIFO) discipline the class is pure accounting — timing is identical
/// for every mix — while the strict discipline schedules each node server
/// per class (see QueueingConfig::scheduling).
enum class TrafficClass : std::uint8_t {
  kQuery = 0,
  kRepair = 1,
  kHandoff = 2,
};
inline constexpr std::size_t kNumTrafficClasses = 3;

inline constexpr std::size_t class_index(TrafficClass c) {
  return static_cast<std::size_t>(c);
}

struct CongestionStats {
  // --- traffic ---------------------------------------------------------------
  /// Messages that entered the queueing path.
  std::uint64_t messages = 0;
  /// Link departures actually scheduled; coalescing makes this smaller than
  /// `messages` (messages - batches departures were saved by batching).
  std::uint64_t batches = 0;
  /// Payload bytes that crossed links.
  std::uint64_t bytes_on_wire = 0;

  // --- queueing delay --------------------------------------------------------
  /// Sum over messages of (delivery time - send time - propagation): the
  /// time spent waiting for or holding node servers, the coalescing window,
  /// and link transmission. Exactly zero for every message under a
  /// zero-queue config.
  double queue_delay_total = 0.0;
  double queue_delay_max = 0.0;

  // --- per-class traffic -----------------------------------------------------
  /// messages and queue_delay_total split by TrafficClass (indexed with
  /// class_index). The per-class delays are how the repair-never-starved
  /// property is audited: under strict scheduling the repair class's mean
  /// stays bounded by its own backlog no matter how deep the query class
  /// queues.
  std::array<std::uint64_t, kNumTrafficClasses> class_messages{};
  std::array<double, kNumTrafficClasses> class_queue_delay{};

  // --- flow control ----------------------------------------------------------
  /// Query-class sends refused admission (the sender shed or degraded the
  /// work instead of queueing it); they consumed no network resources.
  std::uint64_t shed_messages = 0;
  /// Never incremented: no sender hedges. perfbench's
  /// `net.hedges_won_ratio` is their only reader; both go when the
  /// benchmark drops that metric (ROADMAP item 1).
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;

  // --- node pressure ---------------------------------------------------------
  /// Longest egress/ingress backlog FIFO at any single node, read right
  /// after each push: the push first drops the reservations at the FIFO's
  /// head that completed by the send's enqueue instant, then appends one.
  /// Under kStrict completions interleave across classes, so a completed
  /// reservation behind an outstanding one still counts: 4 queries then 1
  /// repair into one node at service rate 1 leave a length of 5 after a
  /// push at t = 3.5, of which 4 are outstanding.
  std::uint64_t egress_depth_peak = 0;
  std::uint64_t ingress_depth_peak = 0;
  /// Total simulated time node servers spent serving messages, summed over
  /// nodes. Divide by (elapsed time x node count) for mean utilization.
  double egress_busy_total = 0.0;
  double ingress_busy_total = 0.0;

  double class_queue_delay_mean(TrafficClass c) const {
    const std::size_t i = class_index(c);
    return class_messages[i] == 0
               ? 0.0
               : class_queue_delay[i] / static_cast<double>(class_messages[i]);
  }
  /// Mean messages per departure: 1.0 when nothing coalesced — including
  /// before any traffic, where the no-coalescing identity is the only
  /// consistent value (messages == batches == 0).
  double batch_occupancy_mean() const {
    return batches == 0
               ? 1.0
               : static_cast<double>(messages) / static_cast<double>(batches);
  }
  /// Departures saved by coalescing.
  std::uint64_t departures_saved() const { return messages - batches; }
  /// Mean fraction of time a node's server (egress + ingress combined) was
  /// busy over `elapsed` simulated time across `nodes` nodes.
  double service_utilization(double elapsed, std::size_t nodes) const {
    const double capacity = elapsed * 2.0 * static_cast<double>(nodes);
    return capacity <= 0.0 ? 0.0
                           : (egress_busy_total + ingress_busy_total) / capacity;
  }

  /// Interval accounting: subtract an earlier snapshot of the same transport
  /// to get the delta for a round/window. Every *monotone* additive counter
  /// participates (add new fields HERE, not at call sites). The peaks and
  /// the max stay cumulative: maxima have no per-interval difference. Use
  /// messages/batches of the delta for per-interval batch occupancy.
  CongestionStats& operator-=(const CongestionStats& snapshot) {
    messages -= snapshot.messages;
    batches -= snapshot.batches;
    bytes_on_wire -= snapshot.bytes_on_wire;
    queue_delay_total -= snapshot.queue_delay_total;
    for (std::size_t i = 0; i < kNumTrafficClasses; ++i) {
      class_messages[i] -= snapshot.class_messages[i];
      class_queue_delay[i] -= snapshot.class_queue_delay[i];
    }
    shed_messages -= snapshot.shed_messages;
    hedges_launched -= snapshot.hedges_launched;
    hedges_won -= snapshot.hedges_won;
    egress_busy_total -= snapshot.egress_busy_total;
    ingress_busy_total -= snapshot.ingress_busy_total;
    return *this;
  }

  friend bool operator==(const CongestionStats&,
                         const CongestionStats&) = default;
};

}  // namespace armada::net
