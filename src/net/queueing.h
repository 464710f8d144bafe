// Congestion-aware queueing network under the Transport.
//
// The paper (and PRs 2-4) price a hop as pure propagation delay, which
// silently assumes an uncongested network. This module makes offered load
// cost something: each node owns FIFO egress/ingress service queues with a
// configurable service rate, messages carry a byte size priced against
// per-link bandwidth, and a per-link *coalescing window* batches departures
// (messages leaving node u for node v inside the window ride one scheduled
// departure).
//
// Scheduling discipline: *virtual-time reservations* (cf. VirtualClock
// packet scheduling). A send reserves every resource on the message's path
// — egress server, batch departure slot, link transmission slot, ingress
// server — at enqueue time, in send order, and the final delivery instant
// is therefore known synchronously (Queueing::send returns it). This keeps
// the engine deterministic, keeps per-link FIFO exact, and lets callers
// that need arrival times up front (churn drivers opening stale windows)
// integrate without callback gymnastics. The one approximation: a node's
// ingress server allocates capacity in reservation order, which equals
// arrival order per link but may differ from global arrival order across
// links under extreme skew.
//
// Traffic classes and priority (the closed-loop PR): every send carries a
// TrafficClass. Under the default kFifo discipline the class is pure
// accounting and timing is bit-identical for any mix. kStrict serializes a
// class behind its own tier and every higher tier only: repair never waits
// for query backlog. Because reservations already granted to a lower tier
// are never revoked, a higher-tier burst may transiently overbook a server
// exactly where a preemptive scheduler would instead slip the lower tier —
// lower-tier delays are therefore a lower bound under cross-class
// contention (the standard price of synchronous reservations).
//
// Closed-loop flow control (QueueingConfig::flow): a query sender asks
// admit_query once per message, which counts the target's outstanding
// ingress reservations once and answers both questions from that count —
// shed the query-class work once the backlog reaches the admission limit
// (partial answers with an explicit coverage fraction), else back off,
// delaying the send in proportion to the excess backlog. Both default to
// off; the default config prices every class identically and reproduces
// every pre-existing golden bitwise.
//
// The zero-queue configuration (unlimited rates, zero window, zero-size
// messages) degenerates structurally to pure propagation: every reservation
// is a no-op and send() schedules exactly one event at now + propagation —
// the event Transport schedules with no engine installed — so every
// pre-existing golden is reproduced bitwise.
//
// The engine holds one queue state, which the simulator driving it shares
// with every flow on that simulator (churn repair, bench_congestion's
// open-loop injector): they compete for the same servers and links. A
// synchronous operation (Transport::run_sync) runs on a fresh simulator
// under an Isolation, which sets that state aside and starts from empty
// queues, so a query models only its own *intra-query* contention and a
// query issued from inside a shared run's event leaves its backlog and open
// batches intact. The cumulative CongestionStats aggregate across both.
//
// The queue state is one table indexed by NodeId. A node's entry holds its
// two servers' horizons, each server's backlog — the completion instants of
// its reservations in push order, one contiguous vector read from a head
// index — and the links leaving it, a short list searched by target. The
// table grows by moving its entries, so send() sizes it for both endpoints
// before it takes a reference into it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "net/congestion_stats.h"
#include "net/latency_model.h"
#include "sim/event_queue.h"

namespace armada::net {

/// Service/bandwidth value meaning "no limit".
inline constexpr double kUnlimitedRate =
    std::numeric_limits<double>::infinity();

/// Sender-side closed-loop knobs. Everything defaults to off; query senders
/// (Transport::deliver_walk, FrtSearch) consult these through
/// Transport::admit_query.
struct FlowControlConfig {
  /// Ingress-backlog depth at the target at which a sender starts backing
  /// off; 0 disables backoff.
  std::uint32_t backoff_threshold = 0;
  /// Backoff delay applied per message of backlog beyond the threshold
  /// (linear, so deeper queues push senders off harder).
  sim::Time backoff = 0.0;
  /// Ingress-backlog depth at the target at or above which query-class
  /// sends are refused admission (the sender sheds or degrades the work);
  /// 0 disables admission control. Repair/handoff traffic is never shed.
  std::uint32_t admission_limit = 0;

  bool backoff_enabled() const { return backoff_threshold > 0; }
  bool admission_enabled() const { return admission_limit > 0; }

  friend bool operator==(const FlowControlConfig&,
                         const FlowControlConfig&) = default;
};

/// Knobs of the queueing network. The default-constructed config is the
/// zero-queue configuration: unlimited service and bandwidth, no
/// coalescing, zero-size messages — bitwise the transport without queueing.
struct QueueingConfig {
  /// Per-node service scheduling across traffic classes.
  enum class Scheduling : std::uint8_t {
    /// One shared FIFO per server; classes are accounting-only. Default —
    /// bit-identical to the pre-class engine for any traffic mix.
    kFifo,
    /// Strict priority kRepair > kHandoff > kQuery: a class serializes
    /// behind its own tier and all higher tiers only.
    kStrict,
  };

  /// Messages per unit time each node's egress server (and, independently,
  /// its ingress server) can process. One message therefore holds a server
  /// for 1/service_rate time.
  double service_rate = kUnlimitedRate;
  /// Bytes per unit time a directed link can carry; messages on the same
  /// link serialize behind each other's transmission times.
  double link_bandwidth = kUnlimitedRate;
  /// Departures for the same directed link within this window ride one
  /// scheduled departure (the batch leaves window time after it opened).
  sim::Time coalesce_window = 0.0;
  /// Byte size charged to a message when the sender does not specify one.
  std::uint32_t default_message_bytes = 0;

  Scheduling scheduling = Scheduling::kFifo;

  /// Sender-side closed-loop knobs (all off by default).
  FlowControlConfig flow;

  /// True when the config degenerates to pure propagation: nothing this
  /// engine prices — service, bandwidth, coalescing, or message size — is
  /// on. Size counts on its own: bytes feed bytes_on_wire accounting even
  /// when bandwidth is unlimited.
  bool zero_queue() const {
    return service_rate == kUnlimitedRate &&
           link_bandwidth == kUnlimitedRate && coalesce_window == 0.0 &&
           default_message_bytes == 0;
  }
};

/// The per-transport queueing engine. Owned (behind Transport) by every
/// overlay once install_queueing() ran; all mutating traffic goes through
/// send().
class Queueing {
 public:
  explicit Queueing(QueueingConfig config);

  const QueueingConfig& config() const { return config_; }
  const CongestionStats& stats() const { return stats_; }

  /// Messages sent / delivered on the current queue state, and those whose
  /// delivery event has not yet run. sent() == delivered() + in_flight() at
  /// every event boundary (message conservation); all zero before any send.
  std::uint64_t sent() const;
  std::uint64_t delivered() const;
  std::uint64_t in_flight() const { return sent() - delivered(); }

  /// Reserve the path u -> v for one `bytes`-sized message of class `cls`
  /// enqueued at max(sim.now(), not_before), schedule `on_arrival` (may be
  /// empty) at the delivery instant, and return that instant.
  /// `propagation` is the link's pure propagation latency (the caller
  /// prices it through its LatencyModel). The queueing delay reported to
  /// the callback — and accumulated in stats() — is
  /// delivery - enqueue - propagation.
  sim::Time send(sim::Simulator& sim, NodeId from, NodeId to,
                 std::uint32_t bytes, sim::Time propagation,
                 std::function<void(sim::Time queue_delay)> on_arrival,
                 sim::Time not_before = 0.0,
                 TrafficClass cls = TrafficClass::kQuery);

  // --- closed-loop probes ----------------------------------------------------
  /// Outstanding (not yet completed) service reservations at `node`'s
  /// ingress / egress server in the current queue state at sim.now().
  std::size_t ingress_backlog(const sim::Simulator& sim, NodeId node) const;
  std::size_t egress_backlog(const sim::Simulator& sim, NodeId node) const;
  /// The flow-control verdict on one more query-class message to a target,
  /// both halves read from one count of its ingress backlog. Only query
  /// traffic asks: repair and handoff sends are never shed.
  struct Admission {
    /// Admission control is on and the backlog is at or above the limit.
    bool shed = false;
    /// flow.backoff per message of backlog from the threshold on; 0 with
    /// backoff off or below the threshold.
    sim::Time backoff = 0.0;
  };
  Admission admit_query(const sim::Simulator& sim, NodeId to) const;
  /// Account one admission-control shed (the message never touched the
  /// queues, so the sender reports it here to keep one shared currency).
  void record_shed();

  /// Sets the engine's queue state aside for one synchronous run, which
  /// starts from empty queues, and restores it on destruction — also when
  /// the run throws (Transport::run_sync).
  class Isolation;

 private:
  /// Completion instants of a server's reservations in push order: the
  /// entries of `until` from `head` on. A push first drops the entries at
  /// the head that completed by its send's enqueue instant; under kStrict a
  /// completed entry behind an outstanding one stays until it reaches the
  /// head.
  struct Backlog {
    std::vector<sim::Time> until;
    std::size_t head = 0;

    /// Entries completing after `now`.
    std::size_t outstanding(sim::Time now) const;
    /// Drop the completed head, compacting once it passes half the vector,
    /// append `done`, and raise `*peak` to the length.
    void push(sim::Time now, sim::Time done, std::uint64_t* peak);
  };
  struct LinkState {
    sim::Time wire_busy_until = 0.0;
    sim::Time batch_departure = 0.0;
    NodeId to = 0;
    bool batch_open = false;  ///< batch_departure holds an opened batch
  };
  struct NodeState {
    sim::Time egress_busy_until = 0.0;
    sim::Time ingress_busy_until = 0.0;
    /// Per-class server horizons used by the kStrict (priority tiers)
    /// discipline; untouched under kFifo.
    std::array<sim::Time, kNumTrafficClasses> egress_class_until{};
    std::array<sim::Time, kNumTrafficClasses> ingress_class_until{};
    Backlog egress_backlog;
    Backlog ingress_backlog;
    /// The links out of this node that carried a message.
    std::vector<LinkState> links;
  };
  /// Delivery events outlive the state they were sent on (set aside,
  /// replaced with the engine, or uninstalled), so the delivered counter
  /// they bump lives behind a shared handle.
  struct Live {
    std::uint64_t delivered = 0;
  };
  /// The dynamic queue state of the simulator driving this engine.
  struct State {
    std::uint64_t sent = 0;
    std::shared_ptr<Live> live = std::make_shared<Live>();
    std::vector<NodeState> nodes;
  };

  /// The state of the link from `src` to `to`, opened on first use.
  static LinkState& link(NodeState& src, NodeId to);
  /// Reserve one service slot of class `cls` on the server described by
  /// (busy_until, class_until) under the configured discipline; returns
  /// the completion instant.
  sim::Time reserve_server(
      sim::Time& busy_until,
      std::array<sim::Time, kNumTrafficClasses>& class_until, TrafficClass cls,
      sim::Time now, sim::Time service) const;

  QueueingConfig config_;
  CongestionStats stats_;
  State state_;
};

class Queueing::Isolation {
 public:
  /// Holds the engine: the run may replace or uninstall it.
  explicit Isolation(std::shared_ptr<Queueing> engine)
      : engine_(std::move(engine)),
        saved_(std::exchange(engine_->state_, State{})) {}
  ~Isolation() { engine_->state_ = std::move(saved_); }
  Isolation(const Isolation&) = delete;
  Isolation& operator=(const Isolation&) = delete;

 private:
  std::shared_ptr<Queueing> engine_;
  State saved_;
};

}  // namespace armada::net
