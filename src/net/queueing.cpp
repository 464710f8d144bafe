#include "net/queueing.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace armada::net {

namespace {

/// Priority tiers of the kStrict discipline: lower rank is served first.
/// kRepair > kHandoff > kQuery, so repair is never starved by query
/// backlog.
constexpr std::array<int, kNumTrafficClasses> kStrictRank = {
    /*kQuery=*/2, /*kRepair=*/0, /*kHandoff=*/1};

}  // namespace

std::size_t Queueing::Backlog::outstanding(sim::Time now) const {
  // Completion instants are monotone under kFifo but may interleave across
  // classes under the strict discipline, so count exactly rather than
  // assuming a sorted prefix.
  return static_cast<std::size_t>(
      std::count_if(until.begin() + static_cast<std::ptrdiff_t>(head),
                    until.end(), [now](sim::Time t) { return t > now; }));
}

void Queueing::Backlog::push(sim::Time now, sim::Time done,
                             std::uint64_t* peak) {
  while (head < until.size() && until[head] <= now) {
    ++head;
  }
  if (head > until.size() / 2) {
    until.erase(until.begin(),
                until.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  until.push_back(done);
  *peak = std::max(*peak, static_cast<std::uint64_t>(until.size() - head));
}

Queueing::Queueing(QueueingConfig config) : config_(config) {
  // Node-table growth moves every entry; a throwing move would copy them.
  static_assert(std::is_nothrow_move_constructible_v<NodeState>);
  ARMADA_CHECK(config_.service_rate > 0.0);
  ARMADA_CHECK(config_.link_bandwidth > 0.0);
  ARMADA_CHECK(config_.coalesce_window >= 0.0);
  ARMADA_CHECK(config_.flow.backoff >= 0.0);
}

std::uint64_t Queueing::sent() const { return state_.sent; }

std::uint64_t Queueing::delivered() const { return state_.live->delivered; }

Queueing::LinkState& Queueing::link(NodeState& src, NodeId to) {
  for (LinkState& l : src.links) {
    if (l.to == to) {
      return l;
    }
  }
  return src.links.emplace_back(LinkState{.to = to});
}

sim::Time Queueing::reserve_server(
    sim::Time& busy_until,
    std::array<sim::Time, kNumTrafficClasses>& class_until, TrafficClass cls,
    sim::Time now, sim::Time service) const {
  const std::size_t c = class_index(cls);
  switch (config_.scheduling) {
    case QueueingConfig::Scheduling::kFifo: {
      // One shared FIFO — the pre-class engine, bit for bit.
      const sim::Time done = std::max(now, busy_until) + service;
      busy_until = done;
      return done;
    }
    case QueueingConfig::Scheduling::kStrict: {
      // Serialize behind this tier and all higher tiers. Reservations a
      // lower tier already holds are not revoked (synchronous reservation
      // discipline), so a higher-tier burst can transiently overbook the
      // server where a preemptive scheduler would slip the lower tier.
      sim::Time horizon = now;
      for (std::size_t d = 0; d < kNumTrafficClasses; ++d) {
        if (kStrictRank[d] <= kStrictRank[c]) {
          horizon = std::max(horizon, class_until[d]);
        }
      }
      const sim::Time done = horizon + service;
      class_until[c] = done;
      busy_until = std::max(busy_until, done);
      return done;
    }
  }
  ARMADA_CHECK_MSG(false, "unknown scheduling discipline");
  return now + service;
}

sim::Time Queueing::send(sim::Simulator& sim, NodeId from, NodeId to,
                         std::uint32_t bytes, sim::Time propagation,
                         std::function<void(sim::Time)> on_arrival,
                         sim::Time not_before, TrafficClass cls) {
  const sim::Time now = std::max(sim.now(), not_before);
  const sim::Time service = config_.service_rate == kUnlimitedRate
                                ? 0.0
                                : 1.0 / config_.service_rate;
  // Size the table for both endpoints before referencing either entry:
  // growing it moves them all.
  if (const NodeId top = std::max(from, to); top >= state_.nodes.size()) {
    state_.nodes.resize(std::size_t{top} + 1);
  }
  NodeState& src = state_.nodes[from];
  NodeState& dst = state_.nodes[to];

  // Egress service reservation at the sender. A zero service time is a
  // structural no-op: the message is ready the instant it is enqueued.
  sim::Time ready = now;
  if (service > 0.0) {
    ready = reserve_server(src.egress_busy_until, src.egress_class_until, cls,
                           now, service);
    stats_.egress_busy_total += service;
    src.egress_backlog.push(now, ready, &stats_.egress_depth_peak);
  }

  // Link coalescing: join the open batch when one is still pending for this
  // link and the message is ready before it departs — but never wait
  // longer than one window (a batch reserved with a far-future not_before,
  // e.g. crash repair behind its detection timeout, must not capture
  // ready-now traffic). Otherwise open a new batch that departs a full
  // window after this message is ready. A zero window disables batching
  // (each message is its own departure).
  LinkState& wire = link(src, to);
  sim::Time departure = ready;
  if (config_.coalesce_window > 0.0 && wire.batch_open &&
      wire.batch_departure >= ready &&
      wire.batch_departure <= ready + config_.coalesce_window) {
    departure = wire.batch_departure;
  } else {
    if (config_.coalesce_window > 0.0) {
      departure = ready + config_.coalesce_window;
    }
    wire.batch_departure = departure;
    wire.batch_open = true;
    ++stats_.batches;
  }

  // Transmission: bytes serialize behind earlier traffic on this link.
  sim::Time arrival = departure + propagation;
  if (config_.link_bandwidth != kUnlimitedRate && bytes > 0) {
    const sim::Time tx =
        static_cast<sim::Time>(bytes) / config_.link_bandwidth;
    const sim::Time wire_start = std::max(departure, wire.wire_busy_until);
    wire.wire_busy_until = wire_start + tx;
    arrival = wire_start + tx + propagation;
  }
  stats_.bytes_on_wire += bytes;

  // Ingress service reservation at the receiver.
  sim::Time delivered_at = arrival;
  if (service > 0.0) {
    delivered_at = reserve_server(dst.ingress_busy_until,
                                  dst.ingress_class_until, cls, arrival,
                                  service);
    stats_.ingress_busy_total += service;
    dst.ingress_backlog.push(now, delivered_at, &stats_.ingress_depth_peak);
  }

  ++stats_.messages;
  ++stats_.class_messages[class_index(cls)];
  ++state_.sent;
  // Excess over the pure-propagation delivery instant. Formed as a single
  // subtraction against the identically-computed uncongested arrival so the
  // zero-queue degenerate yields exactly 0.0, not floating-point residue.
  const sim::Time queue_delay = delivered_at - (now + propagation);
  stats_.queue_delay_total += queue_delay;
  stats_.class_queue_delay[class_index(cls)] += queue_delay;
  stats_.queue_delay_max = std::max(stats_.queue_delay_max, queue_delay);

  sim.schedule_at(delivered_at,
                  [live = state_.live, cb = std::move(on_arrival), queue_delay] {
                    ++live->delivered;
                    if (cb) {
                      cb(queue_delay);
                    }
                  });
  return delivered_at;
}

std::size_t Queueing::ingress_backlog(const sim::Simulator& sim,
                                      NodeId node_id) const {
  if (node_id >= state_.nodes.size()) {
    return 0;
  }
  return state_.nodes[node_id].ingress_backlog.outstanding(sim.now());
}

std::size_t Queueing::egress_backlog(const sim::Simulator& sim,
                                     NodeId node_id) const {
  if (node_id >= state_.nodes.size()) {
    return 0;
  }
  return state_.nodes[node_id].egress_backlog.outstanding(sim.now());
}

Queueing::Admission Queueing::admit_query(const sim::Simulator& sim,
                                          NodeId to) const {
  const FlowControlConfig& flow = config_.flow;
  Admission verdict;
  if (!flow.admission_enabled() && !flow.backoff_enabled()) {
    return verdict;
  }
  const std::size_t depth = ingress_backlog(sim, to);
  verdict.shed = flow.admission_enabled() && depth >= flow.admission_limit;
  if (flow.backoff_enabled() && depth >= flow.backoff_threshold) {
    verdict.backoff =
        flow.backoff * static_cast<double>(depth - flow.backoff_threshold + 1);
  }
  return verdict;
}

void Queueing::record_shed() { ++stats_.shed_messages; }

}  // namespace armada::net
