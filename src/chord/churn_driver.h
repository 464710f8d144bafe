// Event-driven membership for the Chord baseline: successor/finger repair
// as transport-priced message exchanges on the Simulator.
//
// overlay::ChurnCore holds the shared model (scheduling, floor guard, crash
// detection, repair delivery, stale windows, stale-route replay); this
// driver prices the classic Chord protocol:
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
#pragma once

#include <cstdint>
#include <vector>

#include "chord/chord.h"
#include "net/churn_core.h"
#include "sim/event_queue.h"

namespace armada::chord {

class ChurnDriver final : public overlay::ChurnCore {
 public:
  ChurnDriver(ChordNetwork& net, sim::Simulator& sim, Config config = {});

  ChordNetwork& net() { return net_; }

  /// Stale-aware finger routing at sim.now() (see ChurnCore::replay); a
  /// failed route has no owner. Records one query outcome in stats() per
  /// call.
  struct StaleRoute : WalkReplay {
    ChordRoute route;          ///< structural walk (surcharges excluded)
    std::vector<NodeId> path;  ///< the walk, source..owner
  };
  StaleRoute route(NodeId from, Key key);

 private:
  void change(sim::ChurnEventKind kind) override;
  bool alive(std::uint32_t id) const override { return net_.is_alive(id); }

  ChordNetwork& net_;
};

}  // namespace armada::chord
