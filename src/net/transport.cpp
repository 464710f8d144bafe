#include "net/transport.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace armada::net {

Transport::Transport() : model_(std::make_shared<ConstantHop>()) {}

Transport::Transport(std::shared_ptr<const LatencyModel> model)
    : model_(std::move(model)) {
  ARMADA_CHECK(model_ != nullptr);
}

void Transport::set_model(std::shared_ptr<const LatencyModel> model) {
  ARMADA_CHECK(model != nullptr);
  model_ = std::move(model);
}

Time Transport::path_latency(const std::vector<NodeId>& path) const {
  Time total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += link(path[i - 1], path[i]);
  }
  return total;
}

Time Transport::deliver(sim::Simulator& sim, NodeId from, NodeId to,
                        std::uint32_t bytes, QueuedArrival on_arrival,
                        Time not_before, TrafficClass cls) {
  // The disabled-path cost of tracing is exactly this one branch.
  if (trace_ != nullptr) [[unlikely]] {
    return deliver_traced(sim, from, to, bytes, std::move(on_arrival),
                          not_before, cls);
  }
  return deliver_impl(sim, from, to, bytes, std::move(on_arrival), not_before,
                      cls);
}

Time Transport::deliver_impl(sim::Simulator& sim, NodeId from, NodeId to,
                             std::uint32_t bytes, QueuedArrival on_arrival,
                             Time not_before, TrafficClass cls) {
  if (queueing_ != nullptr) {
    return queueing_->send(sim, from, to, bytes, link(from, to),
                           std::move(on_arrival), not_before, cls);
  }
  // Fast path: one event at the pure-propagation instant.
  const Time at = std::max(sim.now(), not_before) + link(from, to);
  sim.schedule_at(at, [cb = std::move(on_arrival)] {
    if (cb) {
      cb(0.0);
    }
  });
  return at;
}

Time Transport::deliver_traced(sim::Simulator& sim, NodeId from, NodeId to,
                               std::uint32_t bytes, QueuedArrival on_arrival,
                               Time not_before, TrafficClass cls) {
  obs::TraceRecorder& rec = *trace_;
  const Time send_at = sim.now();
  const Time enqueue_at = std::max(send_at, not_before);
  const std::uint64_t span =
      rec.span_begin(from, to, bytes, cls, send_at, enqueue_at);
  if (span == 0) {
    // No active trace context (or span cap hit): identical to untraced.
    return deliver_impl(sim, from, to, bytes, std::move(on_arrival),
                        not_before, cls);
  }
  // Re-enter the span's context inside the arrival so work done on
  // delivery (FRT recursion, walk continuation) attributes to this hop.
  QueuedArrival wrapped = [r = &rec, span,
                           cb = std::move(on_arrival)](Time queue_delay) {
    const obs::TraceRecorder::Scope scope = r->enter(span);
    if (cb) {
      cb(queue_delay);
    }
  };
  const Time at = deliver_impl(sim, from, to, bytes, std::move(wrapped),
                               not_before, cls);
  // The reservation discipline makes the delivery instant known now, so
  // the span closes synchronously — tracing schedules nothing.
  rec.span_delivered(span, at, at - enqueue_at - link(from, to));
  return at;
}

void Transport::deliver_walk(sim::Simulator& sim, std::vector<NodeId> path,
                             std::function<void(const sim::QueryStats&)> done) {
  struct Walk {
    Transport* transport;
    sim::Simulator* sim;
    std::vector<NodeId> path;
    std::function<void(const sim::QueryStats&)> done;
    sim::Time start = 0.0;
    sim::QueryStats stats;
    std::uint64_t trace = 0;  ///< root span when this walk samples a trace

    void finish() {
      if (trace != 0 && transport->trace_ != nullptr) {
        transport->trace_->end_trace(trace, stats);
      }
      done(stats);
    }

    void hop(std::shared_ptr<Walk> self, std::size_t i) {
      if (i + 1 >= path.size()) {
        finish();
        return;
      }
      const bool sent = transport->send_query(
          *sim, path[i], path[i + 1], stats,
          [self, i](sim::Time queue_delay) {
            self->stats.queue_delay += queue_delay;
            self->stats.latency = self->sim->now() - self->start;
            self->hop(self, i + 1);
          });
      if (!sent) {
        // Admission refused: shed the whole walk. The hops already spent
        // stay in the stats; the answer carries zero coverage.
        stats.coverage = 0.0;
        finish();
        return;
      }
      stats.delay += 1.0;
    }
  };
  auto walk = std::make_shared<Walk>(Walk{this, &sim, std::move(path),
                                          std::move(done), sim.now(),
                                          sim::QueryStats{}});
  if (trace_ != nullptr) [[unlikely]] {
    // Root a new trace unless the walk runs under an enclosing one (e.g.
    // a replica serve inside a PIRA query), in which case its hops join
    // that trace instead.
    walk->trace = trace_->maybe_begin(
        "walk", walk->path.empty() ? NodeId(0) : walk->path.front(),
        sim.now());
    if (walk->trace != 0) {
      const obs::TraceRecorder::Scope scope = trace_->enter(walk->trace);
      walk->hop(walk, 0);
      return;
    }
  }
  walk->hop(walk, 0);
}

void Transport::install_queueing(const QueueingConfig& config) {
  queueing_ = std::make_shared<Queueing>(config);
}

void Transport::uninstall_queueing() { queueing_.reset(); }

const CongestionStats& Transport::congestion() const {
  static const CongestionStats kNone;
  return queueing_ == nullptr ? kNone : queueing_->stats();
}

}  // namespace armada::net
