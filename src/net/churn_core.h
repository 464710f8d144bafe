// ChurnCore: the timed-churn mechanism every overlay's churn driver shares.
//
// A churn driver executes a membership change *at a simulated instant* and
// then puts the overlay's repair protocol on the wire. Everything except
// the protocol itself is the same for every overlay and lives here:
//
//  * Scheduling — one Simulator event per sim::ChurnEvent; the affected
//    node is drawn when the event executes.
//  * The floor guard — leave/crash events are skipped (counted in
//    ChurnStats::skipped_events) while the overlay is at kMinSize nodes.
//  * Repair delivery — `send` hands every repair message that crosses a
//    link to Transport::deliver, departing at the event's repair instant,
//    and extends the event's completion instant. So repair is priced like
//    any other message: at pure propagation cost with no active queueing
//    network, through its queues otherwise, and as a hop span of the
//    event's "repair/*" trace whenever a recorder is attached. Crashes wait
//    out kCrashDetectDelay before any healing traffic departs, so their
//    stale windows are strictly longer than a graceful leave's.
//  * Stale-route windows — until its repair delivery arrives, a rewired
//    node may forward through a dead or not-yet-wired pointer.
//  * Stale-route replay — `replay` re-prices a structural routing walk hop
//    by hop at its own arrival times: a hop leaving a node whose window is
//    still open detours (one extra message, hop and link charge), and more
//    than kMaxDetours detours abandon the walk. One rule for every overlay
//    keeps their detour economics comparable in bench_churn.
//
// An overlay's driver derives from this class and supplies two things:
// `change(kind)`, its membership surgery plus repair protocol, and
// `alive(id)`, which keeps dead ids out of the stale listing. All costs land
// in the shared sim::ChurnStats; determinism follows from seeded RNGs and
// pure latency models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/routed_overlay.h"
#include "net/transport.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace armada::overlay {

class ChurnCore {
 public:
  struct Config {
    /// Degenerate schedule: repair completes instantly, every stale window
    /// is empty, and the overlay evolves exactly as under direct
    /// join/leave/crash calls.
    bool zero_delay = false;
  };

  /// Timeout before a crash is detected and healing traffic departs.
  static constexpr sim::Time kCrashDetectDelay = 2.0;
  /// Stale forward attempts tolerated per query before it is aborted.
  static constexpr std::uint32_t kMaxDetours = 3;
  /// Leave/crash events are skipped (counted in stats) at this size.
  static constexpr std::size_t kMinSize = 8;

  /// Outcome of replaying one routing walk against open stale windows.
  struct WalkReplay {
    sim::QueryStats stats;  ///< walk cost including detour surcharges
    bool stale = false;     ///< touched at least one open window
    std::uint32_t detours = 0;
    bool failed = false;  ///< detour budget exhausted; walk abandoned
  };

  ChurnCore(const ChurnCore&) = delete;
  ChurnCore& operator=(const ChurnCore&) = delete;

  /// Enqueue one membership event (or a whole schedule) on the simulator.
  void schedule(const sim::ChurnEvent& event);
  void schedule(const std::vector<sim::ChurnEvent>& events);

  /// Execute one membership change at sim.now(): instant structural
  /// surgery, then the repair exchange scheduled through the transport.
  /// Normally invoked by scheduled events; callable directly from inside
  /// the simulation (tests drive it this way for precise interleavings).
  void execute(sim::ChurnEventKind kind);

  const sim::ChurnStats& stats() const { return stats_; }

  /// Hook invoked after every *executed* membership event (skipped events
  /// don't fire it), at sim.now() with the repair exchange already
  /// scheduled. Layers above the DHT — the replica subsystem — refresh
  /// their placement and caches through it.
  void set_membership_hook(std::function<void()> hook) {
    membership_hook_ = std::move(hook);
  }

  // --- stale-window introspection (evaluated at sim.now()) -----------------
  bool is_stale(std::uint32_t id) const {
    return windows_.stale_at(id, sim_.now());
  }
  /// Alive nodes currently inside a stale window, ascending. Prunes closed
  /// windows from the record it lists from, hence non-const.
  std::vector<std::uint32_t> stale_nodes();

  /// Record the stale-window outcome of one query observed by a layer above
  /// (e.g. core::ChurnHarness). Updates the query-side ChurnStats counters.
  void record_query(bool stale, std::uint64_t detours, bool failed,
                    std::uint64_t missed);

 protected:
  ChurnCore(RoutedOverlay& overlay, sim::Simulator& sim, Config config);
  ~ChurnCore() = default;

  /// The overlay's membership surgery plus its repair protocol, run by
  /// execute() once the floor check has passed: draw the affected node,
  /// change the structure, then `placement`/`send` the repair traffic and
  /// open the stale windows it implies.
  virtual void change(sim::ChurnEventKind kind) = 0;
  /// Whether `id` is currently a member (stale_nodes lists only those).
  virtual bool alive(std::uint32_t id) const = 0;

  /// One repair delivery from -> to through Transport::deliver, departing
  /// at base(); returns its arrival instant (the queueing engine reserves
  /// synchronously, so coalesced arrivals are exact). The class lets
  /// priority scheduling keep the control plane (kRepair) ahead of query
  /// backlog. A self-send, or any send under the zero-delay schedule,
  /// crosses no link: it arrives at base() and never reaches the transport.
  /// Only valid inside change().
  sim::Time send(net::NodeId from, net::NodeId to, std::uint32_t bytes,
                 net::TrafficClass cls, std::function<void()> on_arrival = {});
  /// Join placement traffic: already-delivered sequential messages, so they
  /// gate when the repair can complete, not each other.
  void placement(std::uint32_t hops, sim::Time latency);
  /// When the current event's repair traffic departs: the event instant,
  /// plus the detection timeout for a crash.
  sim::Time base() const { return base_; }
  sim::Time now() const { return sim_.now(); }

  /// Replay a recorded walk (source..owner) from sim.now() against the
  /// open stale windows, checked per hop at that hop's departure time, so
  /// repair completing mid-walk cleans up the later hops. Through an active
  /// queueing network every transmission (detours included) reserves
  /// capacity at its departure instant, and the stats gain the queue delay
  /// and bytes on the wire. Records one query outcome in stats().
  WalkReplay replay(const std::vector<net::NodeId>& path);

  sim::ChurnStats stats_;
  sim::StaleWindows windows_;  ///< by node id

 private:
  sim::Time priced(sim::Time latency) const {
    return config_.zero_delay ? 0.0 : latency;
  }

  RoutedOverlay& overlay_;
  sim::Simulator& sim_;
  Config config_;
  std::function<void()> membership_hook_;  ///< may be empty
  sim::Time base_ = 0.0;        ///< current event's repair departure
  sim::Time completion_ = 0.0;  ///< current event's last repair arrival
};

}  // namespace armada::overlay
