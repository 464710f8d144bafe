// Event-driven membership for FISSIONE: fission/fusion repair as
// transport-priced message exchanges on the Simulator.
//
// The network's own join/leave/crash keep the instant pointer surgery (the
// zero-delay degenerate schedule, under which every pre-existing figure is
// reproduced bit-for-bit). This driver executes the same structural change
// *at a simulated instant* and then puts the repair protocol on the wire:
//
//  * Placement traffic — the joiner's exact-match route plus the
//    local-minimum balancing walk, priced hop by hop.
//  * Neighbor-table updates — one delivery from the repair origin to every
//    rewired peer; until its update arrives a peer is inside a *stale-route
//    window* and forwarding through it may use a dead or not-yet-wired
//    pointer.
//  * Object handoffs — one batched transfer per (from, to) pair; the moved
//    objects are *in flight* until the transfer arrives and queries that
//    would return them observably miss them.
//
// Crashes additionally wait out a detection timeout before any healing
// traffic departs, so their stale windows are strictly longer than a
// graceful leave's. All repair costs land in the shared sim::ChurnStats
// currency; determinism follows from seeded RNGs and pure latency models.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fissione/network.h"
#include "sim/churn.h"
#include "sim/event_queue.h"

namespace armada::fissione {

class ChurnDriver {
 public:
  struct Config {
    /// Timeout before a crash is detected and healing traffic departs.
    sim::Time crash_detect_delay = 2.0;
    /// Stale forward attempts tolerated per query before it is aborted.
    std::uint32_t max_detours = 3;
    /// Leave/crash events are skipped (counted in stats) below this size.
    std::size_t min_peers = 8;
    /// Per-object surcharge on a handoff transfer's byte size when repair
    /// is priced through an installed queueing network (the base message
    /// costs the config's default size).
    std::uint32_t handoff_object_bytes = 32;
    /// Degenerate schedule: repair completes instantly, every stale window
    /// is empty, and the overlay evolves exactly as under direct
    /// join/leave/crash calls.
    bool zero_delay = false;
  };

  ChurnDriver(FissioneNetwork& net, sim::Simulator& sim)
      : ChurnDriver(net, sim, Config()) {}
  ChurnDriver(FissioneNetwork& net, sim::Simulator& sim, Config config);

  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  /// Enqueue one membership event (or a whole schedule) on the simulator.
  void schedule(const sim::ChurnEvent& event);
  void schedule(const std::vector<sim::ChurnEvent>& events);

  /// Execute one membership change at sim.now(): instant structural
  /// surgery, then the repair exchange scheduled through the transport.
  /// Normally invoked by scheduled events; callable directly from inside
  /// the simulation (tests drive it this way for precise interleavings).
  void execute(sim::ChurnEventKind kind);

  const sim::ChurnStats& stats() const { return stats_; }
  FissioneNetwork& net() { return net_; }
  sim::Simulator& simulator() { return sim_; }
  const Config& config() const { return config_; }

  /// Hook invoked after every *executed* membership event (skipped events
  /// don't fire it), at sim.now() with the repair exchange already
  /// scheduled. Layers above the DHT — the replica subsystem — refresh
  /// their placement and caches through it.
  void set_membership_hook(std::function<void()> hook) {
    membership_hook_ = std::move(hook);
  }

  // --- stale-window introspection (all evaluated at sim.now()) -------------
  bool is_stale(PeerId peer) const {
    return windows_.stale_at(peer, sim_.now());
  }
  sim::Time stale_until(PeerId peer) const { return windows_.until(peer); }
  /// Alive peers currently inside a stale window, ascending. Prunes closed
  /// windows from the record it lists from, hence non-const.
  std::vector<PeerId> stale_peers();
  bool is_in_flight(std::uint64_t payload) const;
  std::size_t objects_in_flight() const;

  /// Record the stale-window outcome of one query observed by a layer above
  /// (e.g. core::ChurnHarness). Updates the query-side ChurnStats counters.
  void record_query(bool stale, std::uint64_t detours, bool failed,
                    std::uint64_t missed);

  /// Exact-match routing at sim.now() with stale-route semantics: the
  /// structural walk is re-priced hop by hop at its own arrival times; a
  /// hop leaving a peer whose window is still open first tries a dead or
  /// not-yet-wired pointer and must detour (one extra message, one extra
  /// hop of delay, one extra link charge). More than `max_detours` detours
  /// aborts the query (failed = true, no owner). Records one query outcome
  /// in stats() per call — like core::ChurnHarness::range_query, so do not
  /// run both wrappers for the same logical query or it is counted twice.
  struct StaleRoute {
    RouteResult route;            ///< structural walk (surcharges excluded)
    sim::QueryStats stats;        ///< walk cost including detour surcharges
    bool stale = false;           ///< touched at least one open window
    std::uint32_t detours = 0;
    bool failed = false;
  };
  StaleRoute route(PeerId from, const kautz::KautzString& object_id);

 private:
  void apply_repair(const FissioneNetwork::MembershipReport& report,
                    bool crashed, sim::Time start);
  sim::Time priced(sim::Time latency) const {
    return config_.zero_delay ? 0.0 : latency;
  }

  FissioneNetwork& net_;
  sim::Simulator& sim_;
  Config config_;
  sim::ChurnStats stats_;
  sim::StaleWindows windows_;  ///< by PeerId
  /// payload handle -> transfer arrival time; purged as transfers land.
  std::unordered_map<std::uint64_t, sim::Time> in_flight_;
  std::function<void()> membership_hook_;  ///< may be empty
};

}  // namespace armada::fissione
