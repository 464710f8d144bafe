#include "net/churn_core.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace armada::overlay {
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

ChurnCore::ChurnCore(RoutedOverlay& overlay, sim::Simulator& sim,
                     Config config)
    : overlay_(overlay), sim_(sim), config_(config) {}

void ChurnCore::schedule(const sim::ChurnEvent& event) {
  sim_.schedule_at(event.at, [this, kind = event.kind] { execute(kind); });
}

void ChurnCore::schedule(const std::vector<sim::ChurnEvent>& events) {
  for (const sim::ChurnEvent& e : events) {
    schedule(e);
  }
}

void ChurnCore::execute(sim::ChurnEventKind kind) {
  const sim::Time start = sim_.now();
  // Root a repair trace around the whole event, before the floor check so
  // a skipped event still consumes a sampler ordinal: every transport
  // delivery the repair and the membership hook make becomes a hop span.
  // Repair traces need no explicit end — each hop's span_delivered
  // advances the root's end to the latest arrival. With no recorder
  // attached this is two null checks.
  obs::TraceRecorder* rec = overlay_.transport().trace();
  const std::uint64_t troot =
      rec != nullptr ? rec->maybe_begin(repair_trace_name(kind), 0, start) : 0;
  const obs::TraceRecorder::Scope trace_scope =
      troot != 0 ? rec->enter(troot) : obs::TraceRecorder::Scope();
  if (kind != sim::ChurnEventKind::kJoin &&
      overlay_.overlay_size() <= kMinSize) {
    ++stats_.skipped_events;
    return;
  }
  // Healing a crash only starts once the failure is detected; a join or
  // graceful leave repairs immediately.
  base_ = start + (kind == sim::ChurnEventKind::kCrash
                       ? priced(kCrashDetectDelay)
                       : 0.0);
  completion_ = base_;
  change(kind);
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      ++stats_.joins;
      break;
    case sim::ChurnEventKind::kLeave:
      ++stats_.leaves;
      break;
    case sim::ChurnEventKind::kCrash:
      ++stats_.crashes;
      break;
  }
  const sim::Time repair_latency = completion_ - start;
  stats_.repair_latency_total += repair_latency;
  stats_.repair_latency_max =
      std::max(stats_.repair_latency_max, repair_latency);
  if (membership_hook_) {
    membership_hook_();
  }
}

sim::Time ChurnCore::send(net::NodeId from, net::NodeId to,
                          std::uint32_t bytes, net::TrafficClass cls,
                          std::function<void()> on_arrival) {
  ++stats_.repair_messages;
  sim::Time arrival;
  if (queued() && from != to) {
    // Updates to the same node inside the coalescing window share a
    // departure, and repair competes with query traffic for the same node
    // queues.
    arrival = overlay_.transport().deliver(
        sim_, from, to, bytes,
        on_arrival ? net::Transport::QueuedArrival(
                         [cb = std::move(on_arrival)](sim::Time) { cb(); })
                   : net::Transport::QueuedArrival(),
        base_, cls);
  } else {
    // The arithmetic path stays bitwise for the uninstalled / zero-queue /
    // zero-delay cases: one delivery event at the propagation instant.
    const sim::Time link =
        from == to ? 0.0 : priced(overlay_.transport().link(from, to));
    arrival = base_ + link;
    if (on_arrival) {
      sim_.schedule_at(arrival, std::move(on_arrival));
    } else {
      sim_.schedule_at(arrival, [] {});  // the delivery event itself
    }
  }
  completion_ = std::max(completion_, arrival);
  return arrival;
}

void ChurnCore::placement(std::uint32_t hops, sim::Time latency) {
  stats_.repair_messages += hops;
  completion_ = std::max(completion_, base_ + priced(latency));
}

std::vector<std::uint32_t> ChurnCore::stale_nodes() {
  return windows_.open_at(sim_.now(),
                          [this](std::uint32_t id) { return alive(id); });
}

void ChurnCore::record_query(bool stale, std::uint64_t detours, bool failed,
                             std::uint64_t missed) {
  stats_.record_query(stale, detours, failed, missed);
}

ChurnCore::WalkReplay ChurnCore::replay(const std::vector<net::NodeId>& path) {
  net::Transport& transport = overlay_.transport();
  const bool use_queueing = queued();
  const std::uint32_t bytes =
      use_queueing ? transport.default_message_bytes() : 0u;
  WalkReplay out;
  sim::Time at = sim_.now();
  // One transmission u -> v departing at `at`.
  auto charge = [&](net::NodeId u, net::NodeId v) {
    sim::Time cost;
    if (use_queueing) {
      cost = transport.deliver(sim_, u, v, bytes, {}, at) - at;
      out.stats.queue_delay += cost - transport.link(u, v);
    } else {
      cost = transport.link(u, v);
    }
    ++out.stats.messages;
    out.stats.delay += 1.0;
    out.stats.latency += cost;
    at += cost;
  };
  if (!path.empty()) {
    out.stale = windows_.stale_at(path.front(), at);
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const net::NodeId u = path[i];
    const net::NodeId v = path[i + 1];
    if (windows_.stale_at(u, at)) {
      out.stale = true;
      ++out.detours;
      charge(u, v);
      if (out.detours > kMaxDetours) {
        out.failed = true;
        break;
      }
    }
    charge(u, v);
  }
  if (use_queueing) {
    out.stats.bytes_on_wire =
        out.stats.messages * static_cast<std::uint64_t>(bytes);
  }
  record_query(out.stale, out.detours, out.failed, 0);
  return out;
}

}  // namespace armada::overlay
