// Timed membership change for the discrete-event kernel.
//
// The paper evaluates static snapshots, but the delay bound is a claim about
// a network that is changing. This module supplies the pieces every overlay
// shares when membership runs on simulated time:
//
//  * ChurnProcess — a deterministic schedule of join/leave/crash events,
//    either Poisson (merged arrival process, seeded exponential gaps) or
//    heavy-tailed sessions (Poisson session starts, Pareto lifetimes).
//  * ChurnStats — the repair-side result currency, the membership analogue
//    of QueryStats: repair messages and latency, objects handed off /
//    dropped / in flight, and the outcomes of queries launched inside
//    stale-route windows.
//  * StaleWindows — the per-node record of open stale-route windows.
//
// The timed-churn mechanism that consumes them (scheduling, the floor
// guard, repair delivery, the stale-route replay) is overlay::ChurnCore in
// net/churn_core.h, a layer up because it delivers through net::Transport.
// Each overlay's churn driver (fissione::ChurnDriver, chord::ChurnDriver)
// derives from it and adds only its repair protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace armada::sim {

enum class ChurnEventKind : std::uint8_t { kJoin, kLeave, kCrash };

/// One scheduled membership change. The affected peer is chosen by the
/// overlay's churn driver when the event executes (uniformly over the peers
/// alive *at that simulated instant*), so schedules stay overlay-agnostic.
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
  /// lifetime is drawn from a Pareto distribution by inverse-transform
  /// sampling.
  struct LifetimeConfig {
    /// Pareto alpha, > 0 (alpha <= 1 has an infinite mean — allowed, the
    /// horizon truncates it).
    double shape = 1.5;
    /// Pareto x_m: the minimum lifetime.
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
