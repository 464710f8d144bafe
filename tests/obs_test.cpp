// Observability layer: JSON formatting, the unified metrics registry, the
// stats->registry publish adapters, the periodic sampler, and end-to-end
// query tracing with the delay-bound auditor.
//
// The two house rules the suite pins down:
//  * tracing is passive — a traced run produces bitwise identical
//    QueryStats (and answers) to an untraced run of the same workload;
//  * span trees are exact — one child span per transport delivery, chain
//    parentage along walks, instants matching the priced link latencies,
//    and the auditor attributing the precise hop that crossed the bound.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fissione/network.h"
#include "net/transport.h"
#include "obs/json_writer.h"
#include "obs/publish.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/rng.h"

namespace armada {
namespace {

using testsupport::make_single_index;

// --- JsonWriter -------------------------------------------------------------

TEST(JsonWriter, EscapesStringsExactly) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, FormatsNumbersExactly) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(5.0), "5");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
}

TEST(JsonWriter, BuildsObjectsInInsertionOrder) {
  obs::JsonWriter w;
  w.field("s", "a\"b").field("i", 5).field("d", 0.5).field("b", true);
  w.field_raw("o", "{}");
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\",\"i\":5,\"d\":0.5,\"b\":true,\"o\":{}}");
  EXPECT_EQ(obs::JsonWriter().str(), "{}");
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, CountersAndGauges) {
  obs::Registry reg;
  reg.count("mono", 10.0);
  reg.count("mono", 10.0);  // same cumulative value is fine
  reg.count("mono", 12.0);
  EXPECT_DOUBLE_EQ(reg.value("mono"), 12.0);

  reg.set("g", 7.0);
  reg.set("g", 2.0);  // gauges overwrite, including downward
  EXPECT_DOUBLE_EQ(reg.value("g"), 2.0);

  EXPECT_THROW(reg.count("mono", 11.0), CheckError);  // counters are monotone
  EXPECT_THROW(reg.set("mono", 1.0), CheckError);     // kinds are sticky
  EXPECT_THROW(reg.count("g", 3.0), CheckError);

  EXPECT_DOUBLE_EQ(reg.value("unknown"), 0.0);
  EXPECT_FALSE(reg.contains("unknown"));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, VisitsInstrumentsInNameOrder) {
  obs::Registry reg;
  reg.count("zeta", 3.0);
  reg.set("alpha", 1.0);
  reg.set("mid", 2.0);
  std::vector<std::pair<std::string, double>> seen;
  reg.visit([&seen](const std::string& name, double value) {
    seen.emplace_back(name, value);
  });
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, double>>{
                      {"alpha", 1.0}, {"mid", 2.0}, {"zeta", 3.0}}));
}

// --- publish adapters -------------------------------------------------------

TEST(Publish, CongestionStatsIncludePerClassSeries) {
  net::CongestionStats c;
  c.messages = 10;
  c.class_messages[net::class_index(net::TrafficClass::kRepair)] = 3;
  c.queue_delay_max = 1.5;
  obs::Registry reg;
  obs::publish(reg, "net", c);
  EXPECT_DOUBLE_EQ(reg.value("net.messages"), 10.0);
  EXPECT_DOUBLE_EQ(reg.value("net.class.repair.messages"), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("net.class.query.messages"), 0.0);
  EXPECT_TRUE(reg.contains("net.class.handoff.messages"));
  EXPECT_DOUBLE_EQ(reg.value("net.queue_delay_max"), 1.5);
}

TEST(Publish, TrafficClassNamesArePinned) {
  EXPECT_STREQ(obs::traffic_class_name(net::TrafficClass::kQuery), "query");
  EXPECT_STREQ(obs::traffic_class_name(net::TrafficClass::kRepair), "repair");
  EXPECT_STREQ(obs::traffic_class_name(net::TrafficClass::kHandoff),
               "handoff");
}

// --- Sampler ----------------------------------------------------------------

TEST(Sampler, PreScheduledTicksSnapshotTheRegistry) {
  obs::Registry reg;
  int ticks = 0;
  obs::Sampler sampler(reg, [&](obs::Registry& r) {
    r.set("g", static_cast<double>(ticks));
    ++ticks;
  });
  sim::Simulator sim;
  sampler.schedule(sim, 0.0, 10.0, 2.5);
  sim.run();
  ASSERT_EQ(sampler.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].t, 0.0);
  EXPECT_DOUBLE_EQ(sampler.samples()[2].t, 5.0);
  EXPECT_DOUBLE_EQ(sampler.samples()[4].t, 10.0);
  // Third tick snapshots the gauge set by its own collect (ticks was 2).
  ASSERT_EQ(sampler.samples()[2].values.size(), 1u);
  EXPECT_EQ(sampler.samples()[2].values[0].first, "g");
  EXPECT_DOUBLE_EQ(sampler.samples()[2].values[0].second, 2.0);

  const std::string jsonl = sampler.jsonl("s");
  std::size_t lines = 0;
  for (char ch : jsonl) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 5u);
  EXPECT_EQ(jsonl.substr(0, 47),
            "{\"schema\":1,\"kind\":\"sample\",\"series\":\"s\",\"t\":0,");
}

// --- TraceRecorder ----------------------------------------------------------

TEST(TraceRecorder, ScopesNestAndRestore) {
  obs::TraceRecorder rec;
  EXPECT_EQ(rec.context(), 0u);
  {
    const auto outer = rec.enter(7);
    EXPECT_EQ(rec.context(), 7u);
    {
      const auto inner = rec.enter(9);
      EXPECT_EQ(rec.context(), 9u);
    }
    EXPECT_EQ(rec.context(), 7u);
  }
  EXPECT_EQ(rec.context(), 0u);
}

TEST(TraceRecorder, MaybeBeginJoinsTheEnclosingTrace) {
  obs::TraceRecorder rec;
  const std::uint64_t root = rec.begin_trace("pira", 3, 0.0);
  ASSERT_NE(root, 0u);
  const auto scope = rec.enter(root);
  EXPECT_EQ(rec.maybe_begin("walk", 4, 0.5), 0u);  // nested: joins, no new root
  EXPECT_EQ(rec.roots_sampled(), 1u);
}

TEST(TraceRecorder, SamplingIsDeterministicInSeedAndOrdinal) {
  obs::TraceConfig cfg;
  cfg.sample_period = 4;
  cfg.seed = 99;
  obs::TraceRecorder a(cfg);
  obs::TraceRecorder b(cfg);
  std::vector<bool> picked_a;
  std::vector<bool> picked_b;
  for (int i = 0; i < 200; ++i) {
    picked_a.push_back(a.begin_trace("walk", 0, 0.0) != 0);
    picked_b.push_back(b.begin_trace("walk", 0, 0.0) != 0);
  }
  EXPECT_EQ(picked_a, picked_b);
  EXPECT_EQ(a.roots_seen(), 200u);
  // 1-in-4 on average; the splitmix64 mix must pick a nontrivial subset.
  EXPECT_GT(a.roots_sampled(), 20u);
  EXPECT_LT(a.roots_sampled(), 180u);
}

TEST(TraceRecorder, AnnotationsMirrorOntoTheRoot) {
  obs::TraceRecorder rec;
  const std::uint64_t root = rec.begin_trace("pira", 0, 0.0);
  ASSERT_NE(root, 0u);
  const auto scope = rec.enter(root);
  const std::uint64_t hop = rec.span_begin(0, 1, 64,
                                           net::TrafficClass::kQuery, 0.0,
                                           0.0);
  ASSERT_NE(hop, 0u);
  rec.span_delivered(hop, 1.0, 0.0);
  {
    const auto hop_scope = rec.enter(hop);
    rec.annotate(obs::kFlagShed);
  }
  EXPECT_EQ(rec.find(hop)->flags & obs::kFlagShed, obs::kFlagShed);
  EXPECT_EQ(rec.find(root)->flags & obs::kFlagShed, obs::kFlagShed);
}

// --- tracing at the Transport seam ------------------------------------------

/// Path over the first `hops + 1` alive peers of `net`.
std::vector<net::NodeId> first_path(const fissione::FissioneNetwork& net,
                                    std::size_t hops) {
  const auto peers = net.alive_peers();
  EXPECT_GE(peers.size(), hops + 1);
  return {peers.begin(), peers.begin() + static_cast<std::ptrdiff_t>(hops) + 1};
}

TEST(Tracing, WalkSpansChainWithExactInstantsAndAuditorAttribution) {
  auto fx = make_single_index(40, 8101);
  net::Transport& transport = fx->net.transport();
  obs::TraceConfig cfg;
  cfg.sample_period = 1;
  cfg.delay_bound = 2.5;
  auto rec = std::make_shared<obs::TraceRecorder>(cfg);
  transport.attach_trace(rec);

  // Four unit-latency hops (ConstantHop, no queueing): deliveries at
  // t = 1, 2, 3, 4 exactly.
  const auto path = first_path(fx->net, 4);
  sim::Simulator sim;
  sim::QueryStats out;
  transport.deliver_walk(sim, path,
                         [&out](const sim::QueryStats& s) { out = s; });
  sim.run();
  transport.detach_trace();

  EXPECT_EQ(out.messages, 4u);
  EXPECT_DOUBLE_EQ(out.latency, 4.0);
  EXPECT_EQ(rec->validate(), "");
  EXPECT_EQ(rec->spans_recorded(), rec->spans_delivered());

  const auto& spans = rec->spans();
  ASSERT_EQ(spans.size(), 5u);  // root + one span per hop
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_STREQ(spans[0].name, "walk");
  EXPECT_EQ(spans[0].from, path.front());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace, spans[0].id);
    // Chain parentage: each hop's continuation runs inside the previous
    // hop's re-entered scope.
    EXPECT_EQ(spans[i].parent, spans[i - 1].id);
    EXPECT_EQ(spans[i].from, path[i - 1]);
    EXPECT_EQ(spans[i].to, path[i]);
    EXPECT_DOUBLE_EQ(spans[i].send_at, static_cast<double>(i - 1));
    EXPECT_DOUBLE_EQ(spans[i].deliver_at, static_cast<double>(i));
    EXPECT_DOUBLE_EQ(spans[i].queue_delay, 0.0);
    EXPECT_EQ(spans[i].cls, net::TrafficClass::kQuery);
  }

  // Auditor: latency 4 > bound 2.5; the violating hop is the first on the
  // critical path arriving past the bound — the 3rd hop (deliver_at 3).
  EXPECT_EQ(rec->violations(), 1u);
  ASSERT_EQ(rec->slow_queries().size(), 1u);
  const obs::SlowQuery& sq = rec->slow_queries()[0];
  EXPECT_DOUBLE_EQ(sq.latency, 4.0);
  EXPECT_DOUBLE_EQ(sq.bound, 2.5);
  EXPECT_EQ(sq.violating_span, spans[3].id);
  EXPECT_NE(sq.dump.find("VIOLATES"), std::string::npos);
  EXPECT_NE(rec->slow_query_log().find("VIOLATES"), std::string::npos);
}

TEST(Tracing, ExportsAreWellFormedAndComplete) {
  auto fx = make_single_index(40, 8102);
  net::Transport& transport = fx->net.transport();
  obs::TraceConfig cfg;
  cfg.sample_period = 1;
  auto rec = std::make_shared<obs::TraceRecorder>(cfg);
  transport.attach_trace(rec);
  sim::Simulator sim;
  transport.deliver_walk(sim, first_path(fx->net, 3),
                         [](const sim::QueryStats&) {});
  sim.run();
  transport.detach_trace();

  const std::string chrome = rec->chrome_trace_json();
  EXPECT_EQ(chrome.substr(0, 12), "{\"schema\":1,");
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);

  const std::string jsonl = rec->spans_jsonl();
  std::size_t lines = 0;
  for (char ch : jsonl) {
    lines += ch == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, rec->spans().size());
  EXPECT_NE(jsonl.find("\"kind\":\"trace\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"span\""), std::string::npos);

  rec->clear();
  EXPECT_TRUE(rec->spans().empty());
  EXPECT_EQ(rec->spans_recorded(), 0u);
}

// One full query workload; returns every query's stats in issue order.
std::vector<sim::QueryStats> run_workload(
    const std::shared_ptr<obs::TraceRecorder>& rec,
    std::vector<std::vector<std::uint64_t>>* answers = nullptr) {
  auto fx = make_single_index(60, 8103);
  testsupport::publish_uniform_values(fx->index, 300, 8104);
  if (rec != nullptr) {
    fx->net.transport().attach_trace(rec);
  }
  std::vector<sim::QueryStats> out;
  Rng rng(8105);
  for (int q = 0; q < 40; ++q) {
    const double lo = rng.next_double(0.0, 950.0);
    const auto r =
        fx->index.range_query(fx->random_issuer(rng), lo, lo + 40.0);
    out.push_back(r.stats);
    if (answers != nullptr) {
      answers->push_back(r.matches);
    }
  }
  if (rec != nullptr) {
    fx->net.transport().detach_trace();
  }
  return out;
}

TEST(Tracing, TracedRunIsBitwiseIdenticalToUntraced) {
  std::vector<std::vector<std::uint64_t>> plain_answers;
  std::vector<std::vector<std::uint64_t>> traced_answers;
  const auto plain = run_workload(nullptr, &plain_answers);

  obs::TraceConfig cfg;
  cfg.sample_period = 2;  // mixed: sampled and unsampled queries interleave
  cfg.seed = 8106;
  auto rec = std::make_shared<obs::TraceRecorder>(cfg);
  const auto traced = run_workload(rec, &traced_answers);

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], traced[i]) << "query " << i;  // bitwise QueryStats
  }
  EXPECT_EQ(plain_answers, traced_answers);
  EXPECT_GT(rec->roots_sampled(), 0u);
  EXPECT_LT(rec->roots_sampled(), rec->roots_seen());
}

TEST(Tracing, SpanCountConservesQueryMessages) {
  obs::TraceConfig cfg;
  cfg.sample_period = 1;
  auto rec = std::make_shared<obs::TraceRecorder>(cfg);
  const auto stats = run_workload(rec);

  std::uint64_t messages = 0;
  for (const sim::QueryStats& s : stats) {
    messages += s.messages;
  }
  std::uint64_t hop_spans = 0;
  for (const obs::Span& s : rec->spans()) {
    hop_spans += s.parent != 0 ? 1 : 0;
  }
  // Every transport delivery of every traced query — and nothing else —
  // became a hop span.
  EXPECT_EQ(hop_spans, messages);
  EXPECT_EQ(rec->roots_sampled(), stats.size());
  EXPECT_EQ(rec->validate(), "");
  EXPECT_EQ(rec->spans_recorded(), rec->spans_delivered());
}

}  // namespace
}  // namespace armada
