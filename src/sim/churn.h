// Timed membership change for the discrete-event kernel.
//
// The paper evaluates static snapshots, but the delay bound is a claim about
// a network that is changing. This module supplies the two pieces every
// overlay shares when membership runs on simulated time:
//
//  * ChurnProcess — a deterministic schedule of join/leave/crash events,
//    either Poisson (merged arrival process, seeded exponential gaps) or
//    trace-driven (an explicit, validated event list).
//  * ChurnStats — the repair-side result currency, the membership analogue
//    of QueryStats: repair messages and latency, objects handed off /
//    dropped / in flight, and the outcomes of queries launched inside
//    stale-route windows.
//
// The per-overlay churn drivers (fissione::ChurnDriver, chord::ChurnDriver)
// consume events from here, execute the structural change, and price the
// repair protocol as transport-delivered messages on the Simulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace armada::sim {

enum class ChurnEventKind : std::uint8_t { kJoin, kLeave, kCrash };

/// One scheduled membership change. The affected peer is chosen by the
/// overlay's churn driver when the event executes (uniformly over the peers
/// alive *at that simulated instant*), so traces stay overlay-agnostic.
struct ChurnEvent {
  Time at = 0.0;
  ChurnEventKind kind = ChurnEventKind::kJoin;
};

/// Repair-side measurements, aggregated across the events a churn driver
/// executed and the queries its stale-aware wrappers observed. The exact
/// counterpart of QueryStats for the maintenance plane; defaulted equality
/// makes cross-build determinism checks one comparison.
struct ChurnStats {
  // --- membership events ----------------------------------------------------
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;
  /// Leave/crash events skipped because the overlay was at its floor size.
  std::uint64_t skipped_events = 0;

  // --- repair traffic -------------------------------------------------------
  /// Transport-delivered repair messages: placement walks, neighbor-table
  /// updates, object handoffs, successor/finger repair.
  std::uint64_t repair_messages = 0;
  /// Sum over events of (last repair arrival - event time); includes crash
  /// detection timeouts.
  double repair_latency_total = 0.0;
  double repair_latency_max = 0.0;
  std::uint64_t objects_handed_off = 0;
  std::uint64_t objects_dropped = 0;
  /// Largest number of objects simultaneously on the wire.
  std::uint64_t objects_in_flight_peak = 0;

  // --- queries racing repair ------------------------------------------------
  std::uint64_t queries = 0;
  /// Queries that touched at least one open stale-route window.
  std::uint64_t stale_queries = 0;
  /// Per-hop detours: a forward attempt through a dead or not-yet-wired
  /// peer that had to be retried over a live link.
  std::uint64_t detours = 0;
  /// Queries aborted after exhausting the detour budget.
  std::uint64_t failed_queries = 0;
  /// Queries whose answer missed objects that were in flight.
  std::uint64_t incomplete_queries = 0;
  std::uint64_t objects_missed = 0;

  /// Record the stale-window outcome of one query — the single bump point
  /// shared by both overlay churn drivers and layered harnesses.
  void record_query(bool stale, std::uint64_t detour_count, bool failed,
                    std::uint64_t missed) {
    ++queries;
    if (stale) {
      ++stale_queries;
    }
    detours += detour_count;
    if (failed) {
      ++failed_queries;
    }
    if (missed > 0) {
      ++incomplete_queries;
      objects_missed += missed;
    }
  }

  std::uint64_t events() const { return joins + leaves + crashes; }
  double repair_latency_mean() const {
    const std::uint64_t n = events();
    return n == 0 ? 0.0 : repair_latency_total / static_cast<double>(n);
  }

  /// Interval accounting: subtract a snapshot taken earlier from the same
  /// driver to get the delta for a round/window. Every additive counter
  /// participates (add new fields HERE, not at call sites); the two maxima
  /// (repair_latency_max, objects_in_flight_peak) stay cumulative — a
  /// running maximum has no meaningful per-interval difference.
  ChurnStats& operator-=(const ChurnStats& snapshot) {
    joins -= snapshot.joins;
    leaves -= snapshot.leaves;
    crashes -= snapshot.crashes;
    skipped_events -= snapshot.skipped_events;
    repair_messages -= snapshot.repair_messages;
    repair_latency_total -= snapshot.repair_latency_total;
    objects_handed_off -= snapshot.objects_handed_off;
    objects_dropped -= snapshot.objects_dropped;
    queries -= snapshot.queries;
    stale_queries -= snapshot.stale_queries;
    detours -= snapshot.detours;
    failed_queries -= snapshot.failed_queries;
    incomplete_queries -= snapshot.incomplete_queries;
    objects_missed -= snapshot.objects_missed;
    return *this;
  }

  friend bool operator==(const ChurnStats&, const ChurnStats&) = default;
};

/// Per-node stale-route windows, keyed by the dense uint32 node ids every
/// overlay in this repo uses. A node is stale while its repair delivery is
/// still on the wire; windows only store their end instant (they open the
/// moment a churn driver touches them). The ids of opened windows are also
/// kept in a record, so listing the open windows costs what is open, not
/// the size of the overlay.
class StaleWindows {
 public:
  bool stale_at(std::uint32_t id, Time at) const {
    return id < windows_.size() && windows_[id].until > at;
  }
  Time until(std::uint32_t id) const {
    return id < windows_.size() ? windows_[id].until : 0.0;
  }
  /// Extend (never shrink) the window of `id` to `until`.
  void touch(std::uint32_t id, Time until) {
    if (id >= windows_.size()) {
      windows_.resize(id + 1);
    }
    Window& w = windows_[id];
    w.until = w.until > until ? w.until : until;
    if (!w.recorded) {
      w.recorded = true;
      recorded_.push_back(id);
    }
  }
  /// Drop any window (ids are recycled by some overlays).
  void clear(std::uint32_t id) {
    if (id < windows_.size()) {
      windows_[id].until = 0.0;
    }
  }
  /// Ids whose window is open at `at` and that `keep` accepts (drivers drop
  /// dead ids), ascending. Windows closed by `at` leave the record here, so
  /// `at` must not decrease from one call to the next; drivers pass their
  /// simulator's now().
  template <typename Keep>
  std::vector<std::uint32_t> open_at(Time at, Keep&& keep) {
    std::vector<std::uint32_t> out;
    std::size_t kept = 0;
    for (const std::uint32_t id : recorded_) {
      Window& w = windows_[id];
      if (w.until <= at) {
        w.recorded = false;
        continue;
      }
      recorded_[kept++] = id;
      if (keep(id)) {
        out.push_back(id);
      }
    }
    recorded_.resize(kept);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Window {
    Time until = 0.0;
    bool recorded = false;  ///< id is in recorded_
  };
  std::vector<Window> windows_;
  /// Every id whose window may be open: touched since its last prune.
  std::vector<std::uint32_t> recorded_;
};

/// Outcome of replaying one routing walk against open stale windows.
struct WalkReplay {
  QueryStats stats;  ///< full walk cost including detour surcharges
  bool stale = false;
  std::uint32_t detours = 0;
  bool failed = false;  ///< detour budget exhausted; walk abandoned
};

/// Invoke a walk-replay link functor for one transmission departing at
/// `at`. Pure latency functors take (u, v); a queueing-transport functor
/// takes (u, v, at) so it can reserve capacity at the transmission's actual
/// departure instant. For pure functors the two-argument form called once
/// per transmission is indistinguishable from the historical
/// once-per-iteration call.
template <typename Node, typename LinkFn>
Time replay_link_cost(LinkFn&& link, Node u, Node v, Time at) {
  if constexpr (std::is_invocable_v<LinkFn&, Node, Node, Time>) {
    return link(u, v, at);
  } else {
    (void)at;
    return link(u, v);
  }
}

/// Replay a recorded walk (source..owner) at its own arrival times: a hop
/// leaving a node whose window is still open first chases a dead or
/// not-yet-wired pointer and detours — one extra message, one extra hop of
/// delay, one extra link charge — and more than `max_detours` detours
/// abandons the walk. Windows are checked per hop at that hop's departure
/// time, so repair completing mid-walk cleans up the later hops. This is
/// the one definition of the stale-route pricing rule; both overlay churn
/// drivers route through it, which is what keeps their detour economics
/// comparable in bench_churn.
template <typename Node, typename LinkFn>
WalkReplay replay_walk(const std::vector<Node>& path, Time start,
                       std::uint32_t max_detours, const StaleWindows& windows,
                       LinkFn&& link) {
  WalkReplay out;
  Time at = start;
  if (!path.empty()) {
    out.stale = windows.stale_at(static_cast<std::uint32_t>(path.front()), at);
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Node u = path[i];
    const Node v = path[i + 1];
    if (windows.stale_at(static_cast<std::uint32_t>(u), at)) {
      out.stale = true;
      ++out.detours;
      const Time detour_cost = replay_link_cost(link, u, v, at);
      ++out.stats.messages;
      out.stats.delay += 1.0;
      out.stats.latency += detour_cost;
      at += detour_cost;
      if (out.detours > max_detours) {
        out.failed = true;
        break;
      }
    }
    const Time cost = replay_link_cost(link, u, v, at);
    ++out.stats.messages;
    out.stats.delay += 1.0;
    out.stats.latency += cost;
    at += cost;
  }
  return out;
}

/// replay_walk through a queueing transport: every transmission reserves
/// queue capacity at its departure instant (stale detours included), so
/// replayed queries compete with concurrent traffic for the same node
/// servers and links. The walk's stats gain the accumulated queue_delay
/// and the bytes its messages put on the wire. TransportT is
/// net::Transport (templated to keep sim/ free of a net/ dependency);
/// SimT is the simulator shared with that transport's other traffic.
template <typename Node, typename TransportT, typename SimT>
WalkReplay replay_walk_queued(const std::vector<Node>& path, Time start,
                              std::uint32_t max_detours,
                              const StaleWindows& windows,
                              TransportT& transport, SimT& sim,
                              std::uint32_t bytes) {
  double queue_delay = 0.0;
  WalkReplay out = replay_walk(
      path, start, max_detours, windows, [&](Node u, Node v, Time at) {
        const Time cost = transport.deliver(sim, u, v, bytes, {}, at) - at;
        queue_delay += cost - transport.link(u, v);
        return cost;
      });
  out.stats.queue_delay = queue_delay;
  out.stats.bytes_on_wire =
      out.stats.messages * static_cast<std::uint64_t>(bytes);
  return out;
}

/// The one stale-route pricing rule both churn drivers use: replay the
/// walk through the queueing network when `use_queueing` (reserving
/// capacity per transmission, the config's default message size), or at
/// pure propagation cost otherwise.
template <typename Node, typename TransportT, typename SimT>
WalkReplay replay_walk_priced(const std::vector<Node>& path, Time start,
                              std::uint32_t max_detours,
                              const StaleWindows& windows,
                              TransportT& transport, SimT& sim,
                              bool use_queueing) {
  if (use_queueing) {
    return replay_walk_queued(path, start, max_detours, windows, transport,
                              sim, transport.default_message_bytes());
  }
  return replay_walk(path, start, max_detours, windows,
                     [&transport](Node u, Node v) {
                       return transport.link(u, v);
                     });
}

/// Deterministic membership schedules.
class ChurnProcess {
 public:
  struct Config {
    /// Expected events per unit of simulated time (independent Poisson
    /// processes, generated as one merged stream).
    double join_rate = 0.0;
    double leave_rate = 0.0;
    double crash_rate = 0.0;
    /// Events are generated in [start, horizon).
    Time start = 0.0;
    Time horizon = 0.0;
  };

  /// Heavy-tailed session lifetimes (Bamboo-style churn): node sessions
  /// begin as a Poisson arrival stream, each session joins at its start
  /// instant and departs one drawn lifetime later. Measured P2P session
  /// times are heavy-tailed — most sessions are short, a few last orders of
  /// magnitude longer — which Poisson event mixes cannot express; the
  /// lifetime is drawn from a Pareto or Weibull distribution by
  /// inverse-transform sampling.
  struct LifetimeConfig {
    enum class Tail : std::uint8_t { kPareto, kWeibull };
    Tail tail = Tail::kPareto;
    /// Pareto alpha / Weibull k. Pareto needs shape > 0 (alpha <= 1 has an
    /// infinite mean — allowed, the horizon truncates it); Weibull k < 1
    /// gives the heavy (stretched-exponential) tail.
    double shape = 1.5;
    /// Pareto x_m (minimum lifetime) / Weibull lambda.
    double scale = 4.0;
    /// Session starts per unit simulated time.
    double arrival_rate = 1.0;
    /// Fraction of session ends that are crashes instead of graceful
    /// leaves.
    double crash_fraction = 0.1;
    /// Sessions start in [start, horizon); a session whose lifetime runs
    /// past the horizon never emits its departure (it outlives the
    /// experiment).
    Time start = 0.0;
    Time horizon = 0.0;
  };

  ChurnProcess(Config config, std::uint64_t seed);

  /// The full schedule, sorted by time. Pure function of (config, seed):
  /// repeated calls and equal-seeded instances return identical traces.
  std::vector<ChurnEvent> events() const;

  /// Trace-driven schedule: sorts a hand-written or replayed event list by
  /// time (stable, so equal-time events keep their relative order) and
  /// validates that every timestamp is non-negative.
  static std::vector<ChurnEvent> from_trace(std::vector<ChurnEvent> trace);

  /// Heavy-tailed session-lifetime schedule, sorted by time: one kJoin per
  /// session start, one kLeave/kCrash at start + lifetime when that falls
  /// before the horizon. Pure function of (config, seed). Note ChurnEvents
  /// carry no node identity (drivers pick the affected peer at execution),
  /// so the schedule models the *event mix* heavy-tailed sessions induce:
  /// bursts of short-lived join/leave pairs over a slowly-departing core.
  static std::vector<ChurnEvent> lifetimes(const LifetimeConfig& config,
                                           std::uint64_t seed);

 private:
  Config config_;
  std::uint64_t seed_;
};

}  // namespace armada::sim
