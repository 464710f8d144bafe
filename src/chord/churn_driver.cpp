#include "chord/churn_driver.h"

#include <algorithm>
#include <utility>

namespace armada::chord {

static_assert(ChurnDriver::kMinSize > 2, "floor must keep a 3-node ring");

ChurnDriver::ChurnDriver(ChordNetwork& net, sim::Simulator& sim, Config config)
    : ChurnCore(net, sim, config), net_(net) {}

void ChurnDriver::change(sim::ChurnEventKind kind) {
  ChordNetwork::MembershipReport report;
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      net_.join(&report);
      break;
    case sim::ChurnEventKind::kLeave:
      net_.leave(net_.random_node(), &report);
      break;
    case sim::ChurnEventKind::kCrash:
      net_.crash(net_.random_node(), &report);
      break;
  }
  const bool join = kind == sim::ChurnEventKind::kJoin;
  const std::uint32_t bytes = net_.transport().default_message_bytes();
  // Repair radiates from the joiner, or — once the departure is noticed —
  // from the successor inheriting the keyspace.
  const NodeId origin = join ? report.node : report.successor;
  auto notify = [&](NodeId from, NodeId to) {
    return send(from, to, bytes, net::TrafficClass::kRepair);
  };

  // Placement lookup (join): sequential messages that gate the repair.
  placement(report.placement_hops, report.placement_latency);

  // A graceful departure hands its keyspace to the successor before going —
  // a bulk transfer, classed kHandoff like the FISSIONE object handoffs.
  if (kind == sim::ChurnEventKind::kLeave && report.node != kNoNode &&
      report.successor != kNoNode) {
    windows_.touch(report.successor,
                   send(report.node, report.successor, bytes,
                        net::TrafficClass::kHandoff));
  }

  // Ring neighbors learn of the change first (join hello / leave goodbye /
  // crash healing probe).
  if (report.successor != kNoNode && report.successor != origin) {
    windows_.touch(report.successor, notify(origin, report.successor));
  }
  if (report.predecessor != kNoNode && report.predecessor != origin &&
      report.predecessor != report.successor) {
    windows_.touch(report.predecessor, notify(origin, report.predecessor));
  }

  // The joiner builds its finger table: one lookup per distinct target; it
  // is not fully wired until the last answer returns.
  if (join) {
    sim::Time wired = base();
    for (NodeId target : report.finger_targets) {
      wired = std::max(wired, notify(report.node, target));
    }
    windows_.touch(report.node, wired);
  }

  // Finger updates to every rewired node.
  for (NodeId n : report.rewired) {
    if (n == origin) {
      windows_.touch(n, base());
      continue;
    }
    windows_.touch(n, notify(origin, n));
  }
}

ChurnDriver::StaleRoute ChurnDriver::route(NodeId from, Key key) {
  std::vector<NodeId> path;
  ChordRoute structural = net_.route(from, key, &path);
  StaleRoute out{replay(path), std::move(structural), std::move(path)};
  if (out.failed) {
    out.route.owner = kNoNode;
  }
  return out;
}

}  // namespace armada::chord
