// Event-driven membership for the Chord baseline: successor/finger repair
// as transport-priced message exchanges on the Simulator.
//
// The FISSIONE counterpart (fissione::ChurnDriver) documents the shared
// model; this driver prices the classic Chord protocol instead:
//
//  * Join — the placement lookup to the joiner's successor, notifications
//    to successor and predecessor, one lookup per distinct finger target to
//    build the joiner's table, and one update delivery to every node whose
//    finger was repointed. The joiner is stale until its table is built;
//    rewired nodes are stale until their update arrives.
//  * Leave — goodbye notifications to successor and predecessor, a keyspace
//    handoff to the successor, and finger updates radiating from the
//    successor.
//  * Crash — no goodbye: healing waits out the detection timeout, then the
//    successor repairs the ring and radiates finger updates. Stale windows
//    start at the crash instant, so routes chase the dead node meanwhile.
//
// Costs land in the shared sim::ChurnStats; the stale-aware route wrapper
// records detour-or-fail outcomes for queries racing repair.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "chord/chord.h"
#include "sim/churn.h"
#include "sim/event_queue.h"

namespace armada::chord {

class ChurnDriver {
 public:
  struct Config {
    /// Timeout before a crash is detected and healing traffic departs.
    sim::Time crash_detect_delay = 2.0;
    /// Stale forward attempts tolerated per route before it is aborted.
    std::uint32_t max_detours = 3;
    /// Leave/crash events are skipped (counted in stats) below this size.
    std::size_t min_nodes = 8;
    /// Degenerate schedule: repair completes instantly and every stale
    /// window is empty — bitwise the instant join/leave/crash path.
    bool zero_delay = false;
  };

  ChurnDriver(ChordNetwork& net, sim::Simulator& sim)
      : ChurnDriver(net, sim, Config()) {}
  ChurnDriver(ChordNetwork& net, sim::Simulator& sim, Config config);

  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  void schedule(const sim::ChurnEvent& event);
  void schedule(const std::vector<sim::ChurnEvent>& events);

  /// Execute one membership change at sim.now() (see fissione::ChurnDriver).
  void execute(sim::ChurnEventKind kind);

  const sim::ChurnStats& stats() const { return stats_; }
  ChordNetwork& net() { return net_; }
  const Config& config() const { return config_; }

  /// Hook invoked after every *executed* membership event, at sim.now()
  /// with the repair exchange already scheduled — the generic seam layers
  /// above the DHT (e.g. the replica subsystem) refresh through. Skipped
  /// events don't fire it.
  void set_membership_hook(std::function<void()> hook) {
    membership_hook_ = std::move(hook);
  }

  // --- stale-window introspection (evaluated at sim.now()) -----------------
  bool is_stale(NodeId node) const {
    return windows_.stale_at(node, sim_.now());
  }
  sim::Time stale_until(NodeId node) const { return windows_.until(node); }
  /// Alive nodes currently inside a stale window, ascending (prunes closed
  /// windows, like fissione::ChurnDriver::stale_peers).
  std::vector<NodeId> stale_nodes();

  /// Stale-aware finger routing at sim.now(): hops leaving a node inside an
  /// open window first chase a dead or repointed finger and detour (one
  /// extra message, hop, and link charge); exhausting the detour budget
  /// aborts the route (failed, no owner).
  struct StaleRoute {
    ChordRoute route;           ///< structural walk (surcharges excluded)
    std::vector<NodeId> path;   ///< the walk, source..owner
    sim::QueryStats stats;      ///< walk cost including detour surcharges
    bool stale = false;
    std::uint32_t detours = 0;
    bool failed = false;
  };
  /// Records one query outcome in stats() per call.
  StaleRoute route(NodeId from, Key key);

 private:
  void apply_repair(const ChordNetwork::MembershipReport& report,
                    sim::ChurnEventKind kind, sim::Time start);
  sim::Time priced(sim::Time latency) const {
    return config_.zero_delay ? 0.0 : latency;
  }

  ChordNetwork& net_;
  sim::Simulator& sim_;
  Config config_;
  sim::ChurnStats stats_;
  sim::StaleWindows windows_;  ///< by NodeId
  std::function<void()> membership_hook_;  ///< may be empty
};

}  // namespace armada::chord
