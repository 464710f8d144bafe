#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "obs/json_writer.h"

namespace armada::obs {
namespace {

// splitmix64 finalizer: decorrelates (seed, ordinal) so period-P sampling
// picks a deterministic but well-spread 1/P subset of roots instead of
// every P-th query of a regular workload.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string flag_names(std::uint32_t flags) {
  static constexpr struct {
    std::uint32_t bit;
    const char* name;
  } kNames[] = {
      {kFlagShed, "shed"},
      {kFlagCacheHit, "cache_hit"},
      {kFlagReplicaRoute, "replica_route"},
      {kFlagDelegationSplit, "delegation_split"},
      {kFlagServe, "serve"},
      {kFlagMigration, "migration"},
      {kFlagReplication, "replication"},
  };
  std::string out;
  for (const auto& n : kNames) {
    if ((flags & n.bit) != 0) {
      if (!out.empty()) {
        out += '|';
      }
      out += n.name;
    }
  }
  return out;
}

std::string format_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", t);
  return buf;
}

}  // namespace

const char* traffic_class_name(net::TrafficClass cls) {
  switch (cls) {
    case net::TrafficClass::kQuery:
      return "query";
    case net::TrafficClass::kRepair:
      return "repair";
    case net::TrafficClass::kHandoff:
      return "handoff";
  }
  return "query";
}

bool TraceRecorder::sampled(std::uint64_t ordinal) const {
  if (config_.sample_period <= 1) {
    return true;
  }
  return mix64(config_.seed ^ ordinal) % config_.sample_period == 0;
}

std::uint64_t TraceRecorder::begin_trace(const char* name, net::NodeId issuer,
                                         sim::Time now) {
  ++roots_seen_;
  if (!sampled(roots_seen_)) {
    return 0;
  }
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return 0;
  }
  Span root;
  root.id = spans_.size() + 1;
  root.trace = root.id;
  root.from = issuer;
  root.to = issuer;
  root.send_at = now;
  root.enqueue_at = now;
  root.deliver_at = now;
  root.name = name;
  spans_.push_back(root);
  ++roots_sampled_;
  return root.id;
}

void TraceRecorder::end_trace(std::uint64_t root, const sim::QueryStats& stats) {
  Span* r = mutable_find(root);
  if (r == nullptr) {
    return;
  }
  r->deliver_at = std::max(r->deliver_at, r->send_at + stats.latency);
  r->queue_delay = stats.queue_delay;
  audit(*r, stats);
}

std::uint64_t TraceRecorder::span_begin(net::NodeId from, net::NodeId to,
                                        std::uint32_t bytes,
                                        net::TrafficClass cls,
                                        sim::Time send_at,
                                        sim::Time enqueue_at) {
  if (current_ == 0) {
    return 0;
  }
  if (spans_.size() >= kMaxSpans) {
    ++spans_dropped_;
    return 0;
  }
  const Span* parent = find(current_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = current_;
  s.trace = parent != nullptr ? parent->trace : current_;
  s.from = from;
  s.to = to;
  s.cls = cls;
  s.bytes = bytes;
  s.send_at = send_at;
  s.enqueue_at = enqueue_at;
  s.deliver_at = enqueue_at;  // finalized by span_delivered
  spans_.push_back(s);
  ++spans_recorded_;
  return s.id;
}

void TraceRecorder::span_delivered(std::uint64_t span, sim::Time deliver_at,
                                   double queue_delay) {
  Span* s = mutable_find(span);
  if (s == nullptr) {
    return;
  }
  s->deliver_at = std::max(deliver_at, s->enqueue_at);
  s->queue_delay = std::max(0.0, queue_delay);
  ++spans_delivered_;
  // Keep the root's end current so repair traces (no QueryStats) still
  // close with the latest arrival.
  if (Span* root = mutable_find(s->trace); root != nullptr) {
    root->deliver_at = std::max(root->deliver_at, s->deliver_at);
  }
}

void TraceRecorder::annotate(std::uint32_t flags) {
  Span* s = mutable_find(current_);
  if (s == nullptr) {
    return;
  }
  s->flags |= flags;
  if (Span* root = mutable_find(s->trace); root != nullptr) {
    root->flags |= flags;
  }
}

std::string TraceRecorder::validate() const {
  char buf[160];
  if (spans_recorded_ != spans_delivered_) {
    std::snprintf(buf, sizeof buf,
                  "conservation: %llu spans begun but %llu delivered",
                  static_cast<unsigned long long>(spans_recorded_),
                  static_cast<unsigned long long>(spans_delivered_));
    return buf;
  }
  for (const Span& s : spans_) {
    const bool is_root = s.parent == 0;
    if (is_root) {
      if (s.trace != s.id || s.name == nullptr) {
        std::snprintf(buf, sizeof buf, "span %llu: malformed root",
                      static_cast<unsigned long long>(s.id));
        return buf;
      }
    } else {
      const Span* parent = find(s.parent);
      if (parent == nullptr || parent->id >= s.id) {
        std::snprintf(buf, sizeof buf, "span %llu: orphan (parent %llu)",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        return buf;
      }
      if (parent->trace != s.trace) {
        std::snprintf(buf, sizeof buf, "span %llu: crosses traces",
                      static_cast<unsigned long long>(s.id));
        return buf;
      }
      const Span* root = find(s.trace);
      if (root == nullptr || root->parent != 0) {
        std::snprintf(buf, sizeof buf, "span %llu: trace %llu has no root",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.trace));
        return buf;
      }
      if (s.send_at < root->send_at) {
        std::snprintf(buf, sizeof buf, "span %llu: starts before its root",
                      static_cast<unsigned long long>(s.id));
        return buf;
      }
    }
    if (!(s.send_at <= s.enqueue_at && s.enqueue_at <= s.deliver_at)) {
      std::snprintf(buf, sizeof buf,
                    "span %llu: instants not monotone (%g, %g, %g)",
                    static_cast<unsigned long long>(s.id), s.send_at,
                    s.enqueue_at, s.deliver_at);
      return buf;
    }
  }
  return "";
}

void TraceRecorder::audit(const Span& root, const sim::QueryStats& stats) {
  if (!(stats.latency > config_.delay_bound)) {
    return;
  }
  ++violations_;
  if (slow_queries_.size() >= kMaxSlowQueries) {
    return;
  }

  // Collect the trace's spans and a parent -> children index (spans are
  // appended in id order, so children come out sorted).
  std::vector<const Span*> members;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.trace != root.id) {
      continue;
    }
    members.push_back(&s);
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }

  // Critical path: walk up from the latest arrival.
  const Span* leaf = nullptr;
  for (const Span* s : members) {
    if (s->parent == 0) {
      continue;
    }
    if (leaf == nullptr || s->deliver_at > leaf->deliver_at) {
      leaf = s;
    }
  }
  std::unordered_set<std::uint64_t> critical;
  std::vector<const Span*> path;
  for (const Span* s = leaf; s != nullptr && s->parent != 0;
       s = find(s->parent)) {
    critical.insert(s->id);
    path.push_back(s);
  }
  std::reverse(path.begin(), path.end());

  // Violating hop: first on the critical path to arrive past the bound;
  // if the overrun accrued outside recorded hops, blame the hop with the
  // largest queue delay.
  std::uint64_t violator = 0;
  for (const Span* s : path) {
    if (s->deliver_at - root.send_at > config_.delay_bound) {
      violator = s->id;
      break;
    }
  }
  if (violator == 0) {
    const Span* worst = nullptr;
    for (const Span* s : members) {
      if (s->parent != 0 &&
          (worst == nullptr || s->queue_delay > worst->queue_delay)) {
        worst = s;
      }
    }
    violator = worst != nullptr ? worst->id : 0;
  }

  SlowQuery slow;
  slow.trace = root.id;
  slow.name = root.name;
  slow.issuer = root.from;
  slow.latency = stats.latency;
  slow.bound = config_.delay_bound;
  slow.violating_span = violator;

  std::string dump;
  {
    char line[256];
    std::snprintf(line, sizeof line,
                  "slow query: trace=%llu name=%s issuer=%u latency=%s "
                  "bound=%s messages=%llu coverage=%s flags=[%s]\n",
                  static_cast<unsigned long long>(root.id), root.name,
                  root.from, format_time(stats.latency).c_str(),
                  format_time(config_.delay_bound).c_str(),
                  static_cast<unsigned long long>(stats.messages),
                  format_time(stats.coverage).c_str(),
                  flag_names(root.flags).c_str());
    dump += line;
  }
  // Depth-first dump in id order; iterative stack keeps deep delegation
  // chains safe.
  std::vector<std::pair<const Span*, int>> stack;
  stack.emplace_back(&root, 0);
  while (!stack.empty()) {
    const auto [s, depth] = stack.back();
    stack.pop_back();
    char line[320];
    const std::string tags = flag_names(s->flags);
    std::snprintf(
        line, sizeof line, "%*s#%llu %s %u->%u bytes=%u send=%s dlv=%s "
        "(+%s) qd=%s%s%s%s%s%s\n",
        depth * 2, "", static_cast<unsigned long long>(s->id),
        s->parent == 0 ? s->name : traffic_class_name(s->cls), s->from, s->to,
        s->bytes, format_time(s->send_at).c_str(),
        format_time(s->deliver_at).c_str(),
        format_time(s->deliver_at - root.send_at).c_str(),
        format_time(s->queue_delay).c_str(), tags.empty() ? "" : " [",
        tags.c_str(), tags.empty() ? "" : "]",
        critical.count(s->id) != 0 ? "  *critical*" : "",
        s->id == violator ? "  <= VIOLATES BOUND" : "");
    dump += line;
    auto it = children.find(s->id);
    if (it != children.end()) {
      for (auto c = it->second.rbegin(); c != it->second.rend(); ++c) {
        stack.emplace_back(*c, depth + 1);
      }
    }
  }
  slow.dump = std::move(dump);
  slow_queries_.push_back(std::move(slow));
}

std::string TraceRecorder::chrome_trace_json() const {
  // Sort by ts so the export streams into chrome://tracing / Perfetto
  // without a buffering pass (and so the CI schema check can assert
  // ordering).
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) {
    order.push_back(&s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     return a->send_at < b->send_at;
                   });
  std::string events;
  for (const Span* s : order) {
    JsonWriter args;
    args.field("span", s->id).field("parent", s->parent);
    args.field("from", static_cast<unsigned long long>(s->from));
    args.field("bytes", static_cast<unsigned long long>(s->bytes));
    args.field("queue_delay", s->queue_delay);
    const std::string tags = flag_names(s->flags);
    if (!tags.empty()) {
      args.field("tags", tags);
    }
    JsonWriter ev;
    ev.field("name", s->parent == 0 ? s->name : traffic_class_name(s->cls));
    ev.field("cat", s->parent == 0 ? "trace" : traffic_class_name(s->cls));
    ev.field("ph", "X");
    // Sim time is unitless; export as if 1 sim tick == 1ms (Chrome ts is
    // in microseconds).
    ev.field("ts", s->send_at * 1000.0);
    ev.field("dur", (s->deliver_at - s->send_at) * 1000.0);
    ev.field("pid", s->trace);
    ev.field("tid", static_cast<unsigned long long>(s->to));
    ev.field_raw("args", args.str());
    if (!events.empty()) {
      events += ',';
    }
    events += ev.str();
  }
  JsonWriter top;
  top.field("schema", kJsonSchemaVersion);
  top.field("displayTimeUnit", "ms");
  top.field_raw("traceEvents", "[" + events + "]");
  return top.str();
}

std::string TraceRecorder::spans_jsonl() const {
  std::string out;
  for (const Span& s : spans_) {
    JsonWriter w;
    w.field("schema", kJsonSchemaVersion);
    w.field("kind", s.parent == 0 ? "trace" : "span");
    w.field("id", s.id).field("parent", s.parent).field("trace", s.trace);
    if (s.parent == 0) {
      w.field("name", s.name);
    }
    w.field("from", static_cast<unsigned long long>(s.from));
    w.field("to", static_cast<unsigned long long>(s.to));
    w.field("cls", traffic_class_name(s.cls));
    w.field("bytes", static_cast<unsigned long long>(s.bytes));
    w.field("send_at", s.send_at).field("enqueue_at", s.enqueue_at);
    w.field("deliver_at", s.deliver_at).field("queue_delay", s.queue_delay);
    w.field("flags", static_cast<unsigned long long>(s.flags));
    const std::string tags = flag_names(s.flags);
    if (!tags.empty()) {
      w.field("tags", tags);
    }
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string TraceRecorder::slow_queries_jsonl() const {
  std::string out;
  for (const SlowQuery& q : slow_queries_) {
    JsonWriter w;
    w.field("schema", kJsonSchemaVersion);
    w.field("kind", "slow_query");
    w.field("trace", q.trace).field("name", q.name);
    w.field("issuer", static_cast<unsigned long long>(q.issuer));
    w.field("latency", q.latency).field("bound", q.bound);
    w.field("violating_span", q.violating_span);
    if (const Span* v = find(q.violating_span); v != nullptr) {
      w.field("violating_from", static_cast<unsigned long long>(v->from));
      w.field("violating_to", static_cast<unsigned long long>(v->to));
      w.field("violating_cls", traffic_class_name(v->cls));
      w.field("violating_deliver_at", v->deliver_at);
      w.field("violating_queue_delay", v->queue_delay);
    }
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string TraceRecorder::slow_query_log() const {
  std::string out;
  for (const SlowQuery& q : slow_queries_) {
    out += q.dump;
    out += '\n';
  }
  return out;
}

void TraceRecorder::clear() {
  spans_.clear();
  slow_queries_.clear();
  current_ = 0;
  roots_seen_ = 0;
  roots_sampled_ = 0;
  spans_recorded_ = 0;
  spans_delivered_ = 0;
  spans_dropped_ = 0;
  violations_ = 0;
}

}  // namespace armada::obs
