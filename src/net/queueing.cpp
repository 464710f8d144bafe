#include "net/queueing.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace armada::net {

namespace {

/// Priority tiers of the kStrict discipline: lower rank is served first.
/// kRepair > kHandoff > kHedge > kQuery, so repair is never starved by
/// query backlog and a hedged retry jumps queries without touching repair.
constexpr std::array<int, kNumTrafficClasses> kStrictRank = {
    /*kQuery=*/3, /*kRepair=*/0, /*kHandoff=*/1, /*kHedge=*/2};

/// Outstanding entries in a backlog deque at `now`. Completion instants
/// are monotone under kFifo but may interleave across classes under the
/// strict discipline, so count exactly rather than assuming a sorted
/// prefix.
std::size_t outstanding(const std::deque<sim::Time>& backlog, sim::Time now) {
  return static_cast<std::size_t>(std::count_if(
      backlog.begin(), backlog.end(),
      [now](sim::Time until) { return until > now; }));
}

}  // namespace

Queueing::Queueing(QueueingConfig config) : config_(config) {
  ARMADA_CHECK(config_.service_rate > 0.0);
  ARMADA_CHECK(config_.link_bandwidth > 0.0);
  ARMADA_CHECK(config_.coalesce_window >= 0.0);
  ARMADA_CHECK(config_.flow.backoff >= 0.0);
  ARMADA_CHECK(config_.flow.hedge_delay >= 0.0);
  ARMADA_CHECK(config_.flow.hedge_threshold >= 0.0);
}

std::uint64_t Queueing::sent() const { return state_.sent; }

std::uint64_t Queueing::delivered() const { return state_.live->delivered; }

Queueing::NodeState& Queueing::node(NodeId id) {
  if (id >= state_.nodes.size()) {
    state_.nodes.resize(id + 1);
  }
  return state_.nodes[id];
}

Queueing::LinkState& Queueing::link(NodeId from, NodeId to) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  return state_.links[key];
}

void Queueing::push_backlog(std::deque<sim::Time>& backlog, sim::Time now,
                            sim::Time until, std::uint64_t* peak) {
  while (!backlog.empty() && backlog.front() <= now) {
    backlog.pop_front();
  }
  backlog.push_back(until);
  *peak = std::max(*peak, static_cast<std::uint64_t>(backlog.size()));
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

  // Egress service reservation at the sender. A zero service time is a
  // structural no-op: the message is ready the instant it is enqueued.
  sim::Time ready = now;
  if (service > 0.0) {
    NodeState& src = node(from);
    ready = reserve_server(src.egress_busy_until, src.egress_class_until, cls,
                           now, service);
    stats_.egress_busy_total += service;
    push_backlog(src.egress_backlog, now, ready, &stats_.egress_depth_peak);
  }

  // Link coalescing: join the open batch when one is still pending for this
  // link and the message is ready before it departs — but never wait
  // longer than one window (a batch reserved with a far-future not_before,
  // e.g. crash repair behind its detection timeout, must not capture
  // ready-now traffic). Otherwise open a new batch that departs a full
  // window after this message is ready. A zero window disables batching
  // (each message is its own departure).
  LinkState& wire = link(from, to);
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
    NodeState& dst = node(to);
    delivered_at = reserve_server(dst.ingress_busy_until,
                                  dst.ingress_class_until, cls, arrival,
                                  service);
    stats_.ingress_busy_total += service;
    push_backlog(dst.ingress_backlog, now, delivered_at,
                 &stats_.ingress_depth_peak);
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
  return outstanding(state_.nodes[node_id].ingress_backlog, sim.now());
}

std::size_t Queueing::egress_backlog(const sim::Simulator& sim,
                                     NodeId node_id) const {
  if (node_id >= state_.nodes.size()) {
    return 0;
  }
  return outstanding(state_.nodes[node_id].egress_backlog, sim.now());
}

bool Queueing::should_shed(const sim::Simulator& sim, NodeId to,
                           TrafficClass cls) const {
  if (!config_.flow.admission_enabled() || cls != TrafficClass::kQuery) {
    return false;
  }
  return ingress_backlog(sim, to) >= config_.flow.admission_limit;
}

sim::Time Queueing::backoff_delay(const sim::Simulator& sim, NodeId to) const {
  if (!config_.flow.backoff_enabled()) {
    return 0.0;
  }
  const std::size_t depth = ingress_backlog(sim, to);
  if (depth < config_.flow.backoff_threshold) {
    return 0.0;
  }
  return config_.flow.backoff *
         static_cast<double>(depth - config_.flow.backoff_threshold + 1);
}

void Queueing::record_shed() { ++stats_.shed_messages; }

void Queueing::record_hedge(bool won) {
  ++stats_.hedges_launched;
  if (won) {
    ++stats_.hedges_won;
  }
}

}  // namespace armada::net
