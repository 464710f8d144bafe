// Transport: message delivery between overlay nodes with model-driven link
// latencies and, optionally, a congestion-aware queueing network.
//
// This is the seam between overlay logic and the network: overlays hand a
// message (a callback) to the transport, which charges the link latency and
// schedules the arrival on the discrete-event simulator. Sequential walks
// that record their path (FISSIONE exact-match routing) price it with
// `path_latency`; walks that don't (CAN greedy routing) accumulate
// `link` costs hop by hop as they go. The default model is ConstantHop,
// one time unit per link, under which arrival times equal hop counts and
// every pre-existing delay figure is reproduced bit-for-bit.
//
// One delivery path: every message goes through `deliver`. With no
// queueing installed, or under the zero-queue config, it schedules one
// event at now() + link(from, to), so arrival times are pure propagation
// and goldens stay bitwise. With an active config it is priced through the
// installed net::Queueing engine: egress/ingress service queues, per-link
// bandwidth and batching (see queueing.h), each message tagged with a
// TrafficClass.
//
// Synchronous operations (PIRA/MIRA `query`, the DCF-CAN flood) run through
// `run_sync`: a fresh simulator, driven to completion, with the engine's
// queue state set aside so the operation starts from empty queues.
//
// Senders close the loop through this seam too: `admit_query` surfaces the
// installed flow-control policy as one verdict per query message, read from
// one count of the next hop's ingress backlog (a no-op without queueing),
// and `send_query` applies it — shed when the next hop is at the admission
// limit, else backed off into a saturated one. The FRT search sends every
// branch through it, and `deliver_walk` every hop, shedding the whole walk
// (coverage 0) on a refused hop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/latency_model.h"
#include "net/queueing.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace armada::net {

class Transport {
 public:
  /// Arrival continuation of `deliver`; receives the message's queueing
  /// delay (delivery - send - propagation; 0 without queueing).
  using QueuedArrival = std::function<void(Time queue_delay)>;

  /// Default transport: ConstantHop (unit cost), i.e. latency == hop count.
  Transport();
  explicit Transport(std::shared_ptr<const LatencyModel> model);

  const LatencyModel& model() const { return *model_; }
  /// Swap the latency model; subsequent queries on the owning network report
  /// latencies under the new model. Never null.
  void set_model(std::shared_ptr<const LatencyModel> model);

  /// Latency charged to one message on the link u -> v.
  Time link(NodeId u, NodeId v) const { return model_->link_latency(u, v); }

  /// Total latency of sequential forwarding along `path` (as produced by
  /// exact-match routing: source first, owner last).
  Time path_latency(const std::vector<NodeId>& path) const;

  /// Deliver a `bytes`-sized message of class `cls` enqueued at
  /// max(now(), not_before); returns the delivery instant. With no
  /// queueing installed the message costs link(from, to); with a config
  /// installed it is priced through the service queues, link bandwidth and
  /// the per-link coalescer. Concurrent deliveries interleave by arrival
  /// time, so "query latency" falls out as the latest arrival at any
  /// destination. `on_arrival` may be empty.
  Time deliver(sim::Simulator& sim, NodeId from, NodeId to,
               std::uint32_t bytes, QueuedArrival on_arrival,
               Time not_before = 0.0,
               TrafficClass cls = TrafficClass::kQuery);

  /// Deliver a recorded walk (source..owner) hop by hop through `deliver`,
  /// as query-class messages of the default size: each hop departs when
  /// the previous one was delivered. `done` receives the walk's cost
  /// fragment — messages == delay == hop count, latency = last delivery -
  /// start, plus the accumulated queue_delay and bytes_on_wire — when the
  /// final hop lands (immediately for an empty or single-node path). The
  /// walk obeys the installed flow-control policy: hops back off into
  /// backlogged targets, and a hop refused admission sheds the walk —
  /// `done` then reports coverage 0 with the hops already spent.
  void deliver_walk(sim::Simulator& sim, std::vector<NodeId> path,
                    std::function<void(const sim::QueryStats&)> done);

  /// Run one synchronous operation: build a fresh simulator, let `fn`
  /// schedule the operation on it, and run it to completion. An installed
  /// engine's queue state is set aside for the run (Queueing::Isolation):
  /// the operation starts from empty queues, and the backlog of an
  /// enclosing simulator — a query issued from inside a churn or
  /// congestion run's event — is left untouched.
  template <typename Fn>
  void run_sync(Fn&& fn) {
    sim::Simulator sim;
    if (queueing_ == nullptr) {
      fn(sim);
      sim.run();
      return;
    }
    const Queueing::Isolation isolation(queueing_);
    fn(sim);
    sim.run();
  }

  // --- queueing network ------------------------------------------------------
  /// Install (or replace) the queueing network; congestion stats restart
  /// from zero. Copies of this transport share the engine.
  void install_queueing(const QueueingConfig& config);
  void uninstall_queueing();
  /// True when an installed config prices messages: one that is not the
  /// zero-queue degenerate.
  bool queueing_active() const {
    return queueing_ != nullptr && !queueing_->config().zero_queue();
  }
  /// The installed engine (null when none) — introspection for tests.
  const Queueing* queueing() const { return queueing_.get(); }
  /// Aggregated congestion currency (all-zero when nothing is installed).
  const CongestionStats& congestion() const;
  /// The installed config's default message size; 0 without queueing.
  std::uint32_t default_message_bytes() const {
    return queueing_ == nullptr ? 0u
                                : queueing_->config().default_message_bytes;
  }

  // --- closed-loop seam ------------------------------------------------------
  /// The installed flow-control policy's verdict on one more query-class
  /// message to `to` (Queueing::admit_query); without queueing, never shed
  /// and no backoff.
  Queueing::Admission admit_query(const sim::Simulator& sim,
                                  NodeId to) const {
    return queueing_ == nullptr ? Queueing::Admission{}
                                : queueing_->admit_query(sim, to);
  }

  /// The one sender policy of query traffic (the FRT search and
  /// `deliver_walk`): send a default-size query-class message from `from`
  /// to `to` under the installed flow-control policy, charged to `stats`.
  /// A message refused admission is shed — counted in `stats.shed`, the
  /// congestion currency and the trace — and nothing is sent (false).
  /// Otherwise it backs off into a backlogged `to`, counts one message and
  /// its bytes in `stats`, and is delivered (true); `on_arrival` runs
  /// there. Defined here so the FRT search's per-branch call inlines: out
  /// of line it cost about 2% of wide_100k's queries/s.
  template <typename Fn>
  bool send_query(sim::Simulator& sim, NodeId from, NodeId to,
                  sim::QueryStats& stats, Fn&& on_arrival) {
    const Queueing::Admission admission = admit_query(sim, to);
    if (admission.shed) {
      queueing_->record_shed();
      if (trace_ != nullptr) {
        trace_->annotate(obs::kFlagShed);
      }
      ++stats.shed;
      return false;
    }
    Time not_before = 0.0;
    if (admission.backoff > 0.0) {
      not_before = sim.now() + admission.backoff;
    }
    const std::uint32_t bytes = default_message_bytes();
    ++stats.messages;
    stats.bytes_on_wire += bytes;
    deliver(sim, from, to, bytes, std::forward<Fn>(on_arrival), not_before,
            TrafficClass::kQuery);
    return true;
  }

  // --- tracing seam ----------------------------------------------------------
  /// Attach a span recorder: every subsequent delivery made under an
  /// active trace context becomes a hop span (see obs/trace.h). Copies of
  /// this transport share the recorder, mirroring install_queueing. With
  /// no recorder attached the delivery paths pay exactly one branch and
  /// produce bitwise identical schedules; with one attached, recording is
  /// purely passive (no events, no randomness), so results still match.
  void attach_trace(std::shared_ptr<obs::TraceRecorder> recorder) {
    trace_ = std::move(recorder);
  }
  void detach_trace() { trace_.reset(); }
  /// The attached recorder; null when tracing is disabled.
  obs::TraceRecorder* trace() const { return trace_.get(); }

 private:
  /// The untraced sized delivery (the former deliver body).
  Time deliver_impl(sim::Simulator& sim, NodeId from, NodeId to,
                    std::uint32_t bytes, QueuedArrival on_arrival,
                    Time not_before, TrafficClass cls);
  /// Out-of-line traced twin: record the hop span, wrap the arrival in the
  /// span's context, then run the common path.
  Time deliver_traced(sim::Simulator& sim, NodeId from, NodeId to,
                      std::uint32_t bytes, QueuedArrival on_arrival,
                      Time not_before, TrafficClass cls);

  std::shared_ptr<const LatencyModel> model_;
  std::shared_ptr<Queueing> queueing_;
  std::shared_ptr<obs::TraceRecorder> trace_;
};

}  // namespace armada::net
