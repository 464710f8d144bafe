// Per-query, hop-level tracing recorded at the Transport seam.
//
// A *trace* is the span tree of one root operation — a PIRA/MIRA range
// query, a transport walk, or a churn repair wave. Every transport
// delivery made while a trace's context is active becomes a child *span*
// carrying its send/enqueue/deliver instants, traffic class, byte size,
// and queue delay. Because the queueing engine reserves delivery instants
// synchronously, a span is complete the moment it is created: tracing
// never schedules events, never draws randomness, and therefore never
// perturbs the simulation — traced and untraced runs produce bitwise
// identical results.
//
// Context propagation is cooperative: the recorder holds a single
// "current span" id, engines enter a Scope around synchronous dispatch,
// and the Transport re-enters the originating span's scope inside every
// wrapped arrival callback, so work done on arrival (FRT recursion,
// repair fan-out) attributes to the hop that caused it.
//
// The recorder also hosts the delay-bound auditor: when a trace ends with
// query stats whose latency exceeds the configured bound, its span tree
// is reconstructed, the critical path to the latest arrival is walked,
// and the violating hop — the first hop on that path past the bound — is
// identified in a human-readable dump plus a structured record.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/congestion_stats.h"
#include "net/latency_model.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace armada::obs {

/// Per-span annotation bits. Annotations set on the current span are
/// mirrored onto its trace root so slow-query dumps can summarise a
/// query ("split, served, shed") without walking the tree. Bit 1 is
/// unused.
enum SpanFlag : std::uint32_t {
  kFlagShed = 1u << 0,          ///< a send from this span was shed
  kFlagCacheHit = 1u << 2,      ///< answered from the result cache
  kFlagReplicaRoute = 1u << 3,  ///< routed to a cheaper replica
  kFlagDelegationSplit = 1u << 4,  ///< FRT split the last hop across hosts
  kFlagServe = 1u << 5,            ///< a destination scanned local storage
  kFlagMigration = 1u << 6,  ///< a rebalance migration launched under this
  kFlagReplication = 1u << 7,  ///< replica placement/teardown traffic
};

/// One hop (or one root). Roots have parent == 0, trace == id, from ==
/// to == the issuer, and a static name; their deliver_at is the
/// operation's end instant: span_delivered advances it to the latest hop
/// arrival in the trace, and end_trace extends a query root's to the
/// query's reported latency.
struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 is "no span"
  std::uint64_t parent = 0;  ///< parent span id, 0 for roots
  std::uint64_t trace = 0;   ///< root span id of the owning trace
  net::NodeId from = 0;
  net::NodeId to = 0;
  net::TrafficClass cls = net::TrafficClass::kQuery;
  std::uint32_t bytes = 0;
  std::uint32_t flags = 0;
  sim::Time send_at = 0.0;     ///< sender handed the message to transport
  sim::Time enqueue_at = 0.0;  ///< entered the network (send + backoff)
  sim::Time deliver_at = 0.0;  ///< arrival at `to`
  double queue_delay = 0.0;    ///< deliver - enqueue - propagation
  const char* name = nullptr;  ///< root label (static storage); else null
};

/// One delay-bound violation found by the auditor.
struct SlowQuery {
  std::uint64_t trace = 0;
  const char* name = nullptr;
  net::NodeId issuer = 0;
  double latency = 0.0;
  double bound = 0.0;
  /// First span on the critical path whose arrival exceeds the bound
  /// (relative to the trace start); 0 when the overrun has no recorded
  /// hop (e.g. all latency accrued outside traced deliveries).
  std::uint64_t violating_span = 0;
  /// Indented span-tree dump, critical path and violator marked.
  std::string dump;
};

struct TraceConfig {
  /// Trace one of every `sample_period` roots (1 = all). Sampling is
  /// deterministic in (seed, root ordinal), so a rerun traces the same
  /// queries.
  std::uint64_t sample_period = 1;
  std::uint64_t seed = 0;
  /// Latency bound audited against query traces; infinity disables the
  /// auditor.
  double delay_bound = std::numeric_limits<double>::infinity();
};

class TraceRecorder {
 public:
  /// Hard cap on recorded spans; past it new roots are dropped (counted)
  /// so long bench runs cannot exhaust memory.
  static constexpr std::size_t kMaxSpans = std::size_t(1) << 22;
  /// Full dumps kept for the slow-query log; violations past the cap are
  /// still counted.
  static constexpr std::size_t kMaxSlowQueries = 64;

  explicit TraceRecorder(TraceConfig config = {}) : config_(config) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const TraceConfig& config() const { return config_; }

  /// RAII context: enters `span` on construction, restores the previous
  /// context on destruction. Scopes nest strictly within one event's call
  /// stack; between simulator events the context is always empty.
  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ != nullptr) {
        rec_->current_ = saved_;
      }
    }

   private:
    friend class TraceRecorder;
    Scope(TraceRecorder* rec, std::uint64_t span) : rec_(rec) {
      saved_ = rec_->current_;
      rec_->current_ = span;
    }
    TraceRecorder* rec_ = nullptr;
    std::uint64_t saved_ = 0;
  };

  [[nodiscard]] Scope enter(std::uint64_t span) { return Scope(this, span); }

  /// The active span id (0 when no trace is in scope).
  std::uint64_t context() const { return current_; }

  // --- roots ----------------------------------------------------------
  /// Starts a new trace rooted at `issuer` if the sampler selects this
  /// root; returns the root span id, or 0 (not sampled / span cap hit).
  /// `name` must point to static storage ("pira", "walk", ...).
  std::uint64_t begin_trace(const char* name, net::NodeId issuer,
                            sim::Time now);
  /// begin_trace, but only when no context is active — nested operations
  /// (a replicated query fanning into FRT searches) join the enclosing
  /// trace instead of starting their own.
  std::uint64_t maybe_begin(const char* name, net::NodeId issuer,
                            sim::Time now) {
    return current_ != 0 ? 0 : begin_trace(name, issuer, now);
  }
  /// Ends a query trace: stamps the root's end from `stats.latency` and
  /// runs the delay-bound auditor. No-op for root == 0. Non-query traces
  /// (repair waves) are never ended: span_delivered keeps their root's end
  /// at the latest recorded arrival, and they are not audited.
  void end_trace(std::uint64_t root, const sim::QueryStats& stats);

  // --- transport hooks ------------------------------------------------
  /// Records a hop under the current context; returns the span id (0 when
  /// no context is active or the span cap is hit). The caller must follow
  /// up with span_delivered once the arrival instant is known — with the
  /// reservation discipline that is immediately.
  std::uint64_t span_begin(net::NodeId from, net::NodeId to,
                           std::uint32_t bytes, net::TrafficClass cls,
                           sim::Time send_at, sim::Time enqueue_at);
  void span_delivered(std::uint64_t span, sim::Time deliver_at,
                      double queue_delay);
  /// ORs `flags` into the current span and its trace root; no-op outside
  /// a traced context.
  void annotate(std::uint32_t flags);

  // --- introspection --------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  const Span* find(std::uint64_t id) const {
    return id >= 1 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
  }
  std::uint64_t roots_seen() const { return roots_seen_; }
  std::uint64_t roots_sampled() const { return roots_sampled_; }
  std::uint64_t spans_recorded() const { return spans_recorded_; }
  std::uint64_t spans_delivered() const { return spans_delivered_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }
  std::uint64_t violations() const { return violations_; }
  const std::vector<SlowQuery>& slow_queries() const { return slow_queries_; }

  /// Structural check: parents exist and precede children within the same
  /// trace, instants are monotone (send <= enqueue <= deliver), children
  /// start no earlier than their root, and every begun span was
  /// delivered. Returns "" when well-formed, else a description of the
  /// first problem.
  std::string validate() const;

  // --- exports --------------------------------------------------------
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
  /// one complete ("X") event per span, pid = trace id, tid = receiving
  /// node, timestamps in microseconds (sim time x 1000), sorted by ts.
  std::string chrome_trace_json() const;
  /// One JSON object per line; roots are kind "trace", hops kind "span".
  std::string spans_jsonl() const;
  /// Structured slow-query records, one JSON object per line.
  std::string slow_queries_jsonl() const;
  /// Human-readable slow-query log (the dumps back to back).
  std::string slow_query_log() const;

  void clear();

 private:
  Span* mutable_find(std::uint64_t id) {
    return id >= 1 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
  }
  bool sampled(std::uint64_t ordinal) const;
  void audit(const Span& root, const sim::QueryStats& stats);

  TraceConfig config_;
  std::vector<Span> spans_;
  std::vector<SlowQuery> slow_queries_;
  std::uint64_t current_ = 0;
  std::uint64_t roots_seen_ = 0;
  std::uint64_t roots_sampled_ = 0;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_delivered_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t violations_ = 0;
};

/// Static label for a traffic class ("query", "repair", "handoff") — the
/// enum the CI trace schema pins.
const char* traffic_class_name(net::TrafficClass cls);

}  // namespace armada::obs
