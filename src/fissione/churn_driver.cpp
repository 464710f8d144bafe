#include "fissione/churn_driver.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"

namespace armada::fissione {
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

ChurnDriver::ChurnDriver(FissioneNetwork& net, sim::Simulator& sim,
                         Config config)
    : net_(net), sim_(sim), config_(config) {
  ARMADA_CHECK(config_.crash_detect_delay >= 0.0);
  ARMADA_CHECK_MSG(config_.min_peers > net_.config().base + 1u,
                   "floor must stay above the bootstrap size");
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
  // Root a repair trace around the whole event: every transport delivery
  // apply_repair makes (neighbor updates, handoffs) becomes a hop span.
  // Repair traces close via their latest arrival, so no explicit end is
  // needed; with no recorder attached this is two null checks.
  obs::TraceRecorder* rec = net_.transport().trace();
  const std::uint64_t troot =
      rec != nullptr ? rec->maybe_begin(repair_trace_name(kind), 0, start) : 0;
  const obs::TraceRecorder::Scope trace_scope =
      troot != 0 ? rec->enter(troot) : obs::TraceRecorder::Scope();
  FissioneNetwork::MembershipReport report;
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      net_.join(&report);
      // PeerIds are recycled: a window left over from a departed peer must
      // not leak onto the fresh joiner reusing its id.
      windows_.clear(report.joiner);
      ++stats_.joins;
      break;
    case sim::ChurnEventKind::kLeave:
      if (net_.num_peers() <= config_.min_peers) {
        ++stats_.skipped_events;
        return;
      }
      net_.leave(net_.random_peer(), &report);
      ++stats_.leaves;
      break;
    case sim::ChurnEventKind::kCrash:
      if (net_.num_peers() <= config_.min_peers) {
        ++stats_.skipped_events;
        return;
      }
      net_.crash(net_.random_peer(), &report);
      ++stats_.crashes;
      break;
  }
  apply_repair(report, kind == sim::ChurnEventKind::kCrash, start);
  if (membership_hook_) {
    membership_hook_();
  }
}

void ChurnDriver::apply_repair(const FissioneNetwork::MembershipReport& report,
                               bool crashed, sim::Time start) {
  net::Transport& transport = net_.transport();
  // Repair travels the queueing network when one is installed: updates to
  // the same peer inside the coalescing window share a departure, and
  // repair competes with query traffic for the same node queues. The
  // arithmetic path below stays bitwise for the uninstalled / zero-delay
  // cases.
  const bool queued = !config_.zero_delay && transport.queueing_active();
  // Healing a crash only starts once the failure is detected; a join or
  // graceful leave repairs immediately.
  const sim::Time base =
      start + (crashed ? priced(config_.crash_detect_delay) : 0.0);
  sim::Time completion = base;

  // One repair delivery a -> b; returns its arrival instant (the queueing
  // engine reserves synchronously, so coalesced arrivals are exact). Each
  // message carries its traffic class so priority scheduling can keep the
  // control plane (kRepair) ahead of query backlog.
  auto send = [&](PeerId a, PeerId b, std::uint32_t bytes,
                  std::function<void()> on_arrival, net::TrafficClass cls) {
    ++stats_.repair_messages;
    if (queued) {
      return transport.deliver(
          sim_, a, b, bytes,
          on_arrival ? net::Transport::QueuedArrival(
                           [cb = std::move(on_arrival)](sim::Time) { cb(); })
                     : net::Transport::QueuedArrival(),
          base, cls);
    }
    const sim::Time arrival = base + priced(transport.link(a, b));
    if (on_arrival) {
      sim_.schedule_at(arrival, std::move(on_arrival));
    } else {
      sim_.schedule_at(arrival, [] {});  // the delivery event itself
    }
    return arrival;
  };

  // Placement traffic (join): already-delivered sequential messages, so
  // they gate when the repair broadcast can begin, not each other.
  stats_.repair_messages += report.placement_hops;
  completion = std::max(completion, base + priced(report.placement_latency));

  // Neighbor-table updates: one delivery origin -> p per rewired peer; p is
  // stale until it arrives. The origin rewires itself locally, so its
  // window only spans the (crash) detection gap.
  for (PeerId p : report.rewired) {
    if (p == report.origin) {
      windows_.touch(p, base);
      continue;
    }
    const sim::Time arrival =
        send(report.origin, p, transport.default_message_bytes(), nullptr,
             net::TrafficClass::kRepair);
    windows_.touch(p, arrival);
    completion = std::max(completion, arrival);
  }

  // Object handoffs: one batched transfer per (from, to); the payloads are
  // in flight — unavailable to queries — until the transfer lands, and both
  // endpoints stay stale while their stores are mid-change.
  for (const auto& h : report.handoffs) {
    const std::uint32_t bytes =
        transport.default_message_bytes() +
        config_.handoff_object_bytes *
            static_cast<std::uint32_t>(h.payloads.size());
    stats_.objects_handed_off += h.payloads.size();
    const sim::Time arrival = send(
        h.from, h.to, bytes, [this] {
      // Purge transfers that have landed by now; re-handed-off objects keep
      // their (later) arrival.
      const sim::Time now = sim_.now();
      for (auto it = in_flight_.begin(); it != in_flight_.end();) {
        it = it->second <= now ? in_flight_.erase(it) : std::next(it);
      }
    },
        net::TrafficClass::kHandoff);
    for (std::uint64_t payload : h.payloads) {
      sim::Time& landing = in_flight_[payload];
      landing = std::max(landing, arrival);
    }
    windows_.touch(h.to, arrival);
    // The sender may have departed (leave handoffs); only alive senders get
    // a window.
    if (net_.is_alive(h.from)) {
      windows_.touch(h.from, arrival);
    }
    completion = std::max(completion, arrival);
  }

  stats_.objects_dropped += report.objects_dropped;
  // Peak counts objects actually on the wire: entries that land at this
  // very instant (zero-delay schedules) are never in flight.
  stats_.objects_in_flight_peak =
      std::max(stats_.objects_in_flight_peak,
               static_cast<std::uint64_t>(objects_in_flight()));
  const sim::Time repair_latency = completion - start;
  stats_.repair_latency_total += repair_latency;
  stats_.repair_latency_max = std::max(stats_.repair_latency_max,
                                       repair_latency);
}

std::vector<PeerId> ChurnDriver::stale_peers() {
  return windows_.open_at(sim_.now(),
                          [this](PeerId p) { return net_.is_alive(p); });
}

bool ChurnDriver::is_in_flight(std::uint64_t payload) const {
  const auto it = in_flight_.find(payload);
  return it != in_flight_.end() && it->second > sim_.now();
}

std::size_t ChurnDriver::objects_in_flight() const {
  std::size_t n = 0;
  for (const auto& [payload, arrival] : in_flight_) {
    if (arrival > sim_.now()) {
      ++n;
    }
  }
  return n;
}

void ChurnDriver::record_query(bool stale, std::uint64_t detours, bool failed,
                               std::uint64_t missed) {
  stats_.record_query(stale, detours, failed, missed);
}

ChurnDriver::StaleRoute ChurnDriver::route(PeerId from,
                                           const kautz::KautzString& object_id) {
  StaleRoute out;
  out.route = net_.route(from, object_id);
  net::Transport& transport = net_.transport();
  const sim::WalkReplay replay = sim::replay_walk_priced(
      out.route.path, sim_.now(), config_.max_detours, windows_, transport,
      sim_, !config_.zero_delay && transport.queueing_active());
  out.stats = replay.stats;
  out.stale = replay.stale;
  out.detours = replay.detours;
  out.failed = replay.failed;
  if (out.failed) {
    out.route.owner = kNoPeer;
  }
  record_query(out.stale, out.detours, out.failed, 0);
  return out;
}

}  // namespace armada::fissione
