#include "chord/churn_driver.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace armada::chord {
namespace {

const char* repair_trace_name(sim::ChurnEventKind kind) {
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      return "repair/join";
    case sim::ChurnEventKind::kLeave:
      return "repair/leave";
    case sim::ChurnEventKind::kCrash:
      return "repair/crash";
  }
  return "repair";
}

}  // namespace

ChurnDriver::ChurnDriver(ChordNetwork& net, sim::Simulator& sim, Config config)
    : net_(net), sim_(sim), config_(config) {
  ARMADA_CHECK(config_.crash_detect_delay >= 0.0);
  ARMADA_CHECK_MSG(config_.min_nodes > 2, "floor must keep a 3-node ring");
}

void ChurnDriver::schedule(const sim::ChurnEvent& event) {
  sim_.schedule_at(event.at, [this, kind = event.kind] { execute(kind); });
}

void ChurnDriver::schedule(const std::vector<sim::ChurnEvent>& events) {
  for (const sim::ChurnEvent& e : events) {
    schedule(e);
  }
}

void ChurnDriver::execute(sim::ChurnEventKind kind) {
  const sim::Time start = sim_.now();
  // Root a repair trace around the event (see fissione::ChurnDriver).
  obs::TraceRecorder* rec = net_.transport().trace();
  const std::uint64_t troot =
      rec != nullptr ? rec->maybe_begin(repair_trace_name(kind), 0, start) : 0;
  const obs::TraceRecorder::Scope trace_scope =
      troot != 0 ? rec->enter(troot) : obs::TraceRecorder::Scope();
  ChordNetwork::MembershipReport report;
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      net_.join(&report);
      ++stats_.joins;
      break;
    case sim::ChurnEventKind::kLeave:
      if (net_.num_nodes() <= config_.min_nodes) {
        ++stats_.skipped_events;
        return;
      }
      net_.leave(net_.random_node(), &report);
      ++stats_.leaves;
      break;
    case sim::ChurnEventKind::kCrash:
      if (net_.num_nodes() <= config_.min_nodes) {
        ++stats_.skipped_events;
        return;
      }
      net_.crash(net_.random_node(), &report);
      ++stats_.crashes;
      break;
  }
  apply_repair(report, kind, start);
  if (membership_hook_) {
    membership_hook_();
  }
}

void ChurnDriver::apply_repair(const ChordNetwork::MembershipReport& report,
                               sim::ChurnEventKind kind, sim::Time start) {
  net::Transport& transport = net_.transport();
  // Repair travels the queueing network when one is installed (see
  // fissione::ChurnDriver::apply_repair): same-link updates inside the
  // coalescing window share a departure. The arithmetic path stays bitwise
  // for the uninstalled / zero-delay cases.
  const bool queued = !config_.zero_delay && transport.queueing_active();
  const bool crashed = kind == sim::ChurnEventKind::kCrash;
  const bool join = kind == sim::ChurnEventKind::kJoin;
  const sim::Time base =
      start + (crashed ? priced(config_.crash_detect_delay) : 0.0);
  sim::Time completion = base;

  // Repair radiates from the joiner, or — once the departure is noticed —
  // from the successor inheriting the keyspace.
  const NodeId origin = join ? report.node : report.successor;
  auto send = [&](NodeId from, NodeId to,
                  net::TrafficClass cls = net::TrafficClass::kRepair) {
    ++stats_.repair_messages;
    sim::Time arrival;
    if (queued && from != to) {
      arrival = transport.deliver(sim_, from, to,
                                  transport.default_message_bytes(), {}, base,
                                  cls);
    } else {
      arrival = base + (from == to ? 0.0 : priced(transport.link(from, to)));
      sim_.schedule_at(arrival, [] {});  // the delivery event itself
    }
    completion = std::max(completion, arrival);
    return arrival;
  };

  // Placement lookup (join): sequential messages that gate the repair.
  stats_.repair_messages += report.placement_hops;
  completion = std::max(completion, base + priced(report.placement_latency));

  // A graceful departure hands its keyspace to the successor before going —
  // a bulk transfer, classed kHandoff like the FISSIONE object handoffs.
  if (kind == sim::ChurnEventKind::kLeave && report.node != kNoNode &&
      report.successor != kNoNode) {
    windows_.touch(report.successor,
                   send(report.node, report.successor,
                        net::TrafficClass::kHandoff));
  }

  // Ring neighbors learn of the change first (join hello / leave goodbye /
  // crash healing probe).
  if (report.successor != kNoNode && report.successor != origin) {
    windows_.touch(report.successor, send(origin, report.successor));
  }
  if (report.predecessor != kNoNode && report.predecessor != origin &&
      report.predecessor != report.successor) {
    windows_.touch(report.predecessor, send(origin, report.predecessor));
  }

  // The joiner builds its finger table: one lookup per distinct target; it
  // is not fully wired until the last answer returns.
  if (join) {
    sim::Time wired = base;
    for (NodeId target : report.finger_targets) {
      wired = std::max(wired, send(report.node, target));
    }
    windows_.touch(report.node, wired);
  }

  // Finger updates to every rewired node.
  for (NodeId n : report.rewired) {
    if (n == origin) {
      windows_.touch(n, base);
      continue;
    }
    windows_.touch(n, send(origin, n));
  }

  const sim::Time repair_latency = completion - start;
  stats_.repair_latency_total += repair_latency;
  stats_.repair_latency_max =
      std::max(stats_.repair_latency_max, repair_latency);
}

std::vector<NodeId> ChurnDriver::stale_nodes() {
  return windows_.open_at(sim_.now(),
                          [this](NodeId n) { return net_.is_alive(n); });
}

ChurnDriver::StaleRoute ChurnDriver::route(NodeId from, Key key) {
  StaleRoute out;
  out.route = net_.route(from, key, &out.path);
  net::Transport& transport = net_.transport();
  const sim::WalkReplay replay = sim::replay_walk_priced(
      out.path, sim_.now(), config_.max_detours, windows_, transport, sim_,
      !config_.zero_delay && transport.queueing_active());
  out.stats = replay.stats;
  out.stale = replay.stale;
  out.detours = replay.detours;
  out.failed = replay.failed;
  if (out.failed) {
    out.route.owner = kNoNode;
  }
  stats_.record_query(out.stale, out.detours, out.failed, 0);
  return out;
}

}  // namespace armada::chord
