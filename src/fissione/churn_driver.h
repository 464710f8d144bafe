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
// Scheduling, the floor guard, crash detection, repair delivery, stale
// windows and the stale-route replay are overlay::ChurnCore's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "fissione/network.h"
#include "net/churn_core.h"
#include "sim/event_queue.h"

namespace armada::fissione {

class ChurnDriver final : public overlay::ChurnCore {
 public:
  /// Per-object surcharge on a handoff transfer's byte size when repair is
  /// priced through an installed queueing network (the base message costs
  /// the config's default size).
  static constexpr std::uint32_t kHandoffObjectBytes = 32;

  ChurnDriver(FissioneNetwork& net, sim::Simulator& sim, Config config = {});

  FissioneNetwork& net() { return net_; }

  bool is_in_flight(std::uint64_t payload) const;
  std::size_t objects_in_flight() const;

  /// Exact-match routing at sim.now() with stale-route semantics (see
  /// ChurnCore::replay); a failed walk has no owner. Records one query
  /// outcome in stats() per call — like core::ChurnHarness::range_query, so
  /// do not run both wrappers for the same logical query or it is counted
  /// twice.
  struct StaleRoute : WalkReplay {
    RouteResult route;  ///< structural walk (surcharges excluded)
  };
  StaleRoute route(PeerId from, const kautz::KautzString& object_id);

 private:
  void change(sim::ChurnEventKind kind) override;
  bool alive(std::uint32_t id) const override { return net_.is_alive(id); }

  FissioneNetwork& net_;
  /// payload handle -> transfer arrival time; purged as transfers land.
  std::unordered_map<std::uint64_t, sim::Time> in_flight_;
};

}  // namespace armada::fissione
