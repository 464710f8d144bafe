// Extension: query latency under congestion — offered load x latency model.
//
// Every figure the repo reproduces prices a hop as pure propagation, which
// silently assumes an uncongested network. This bench installs the
// queueing network (src/net/queueing.h) under the FISSIONE and Chord
// transports and drives an open-loop query injector over a shared
// simulator: exact-match walks are precomputed once per (overlay, model)
// cell, then replayed through the per-node service queues and per-link
// bandwidth at shrinking inter-arrival gaps. Tier 0 is the uncongested
// baseline (no queueing installed: every walk costs its pure-propagation
// latency); tiers 1..3 span a 32x offered-load range (gaps shrink 4x,
// then 8x).
//
// The headline output is the *knee*: the first load tier whose p99 query
// latency departs from the uncongested baseline by more than the knee
// factor. Under every latency model p99 must grow strictly across the
// loaded tiers — the CI benchsmoke leg asserts exactly that from the JSON
// feed, together with strictly positive queueing delay at the top tier.
// A traced run (ARMADA_TRACE_DIR=<dir>) additionally exercises the obs
// layer end to end: the fissione/constant cell's baseline and top tiers
// plus the top closed-loop goodput tier run with an obs::TraceRecorder
// attached (deterministic 1-in-4 sampling, delay bound 2*log2 n), the
// closed-loop tiers sample per-class time series through an obs::Registry
// + Sampler, and the run exports Chrome-trace JSON, a span stream, the
// time series, and the delay-bound auditor's slow-query log under the
// directory. Tracing never perturbs the simulation, so every number in
// the JSON feed is identical with and without it — the CI benchsmoke leg
// validates the exports against tools/trace_schema.json.
#include "common.h"

#include "chord/chord.h"
#include "net/queueing.h"
#include "obs/publish.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace {

using namespace armada;
using namespace armada::bench;

constexpr std::uint64_t kSeed = 77;
constexpr int kTiers = 4;
/// Per-tier inter-arrival gap between query injections at the 16-node
/// reference size; tier 0 is the uncongested baseline (gap only sets the
/// injection spacing there). The loaded tiers span a 32x offered-load
/// range so the top tier sits well past saturation at every scale.
constexpr double kBaseGaps[kTiers] = {2.0, 2.0, 0.5, 0.0625};
constexpr double kKneeFactor = 1.5;

/// A query fans ~log2(n) messages over n node servers, so holding the
/// per-node offered load constant across network sizes requires the
/// injection rate to grow like n / log2(n). Without this, large networks
/// dilute the fixed query stream to the point where every tier is
/// effectively uncongested.
double tier_gap(int tier, std::size_t n) {
  const double nodes = static_cast<double>(n);
  return kBaseGaps[tier] * (4.0 * std::log2(nodes) / nodes);
}

/// The loaded tiers' queueing network: a node server takes 2 time units
/// per message (each direction), a link carries 1 KiB per time unit,
/// messages weigh 256 bytes, and departures for one link coalesce inside
/// 0.05.
net::QueueingConfig congested_config() {
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.link_bandwidth = 1024.0;
  cfg.default_message_bytes = 256;
  cfg.coalesce_window = 0.05;
  return cfg;
}

/// Precomputed structural walks (issuer..owner), shared by every tier of a
/// cell so tiers differ only in offered load.
std::vector<std::vector<net::NodeId>> fissione_walks(
    fissione::FissioneNetwork& net, int queries) {
  std::vector<std::vector<net::NodeId>> walks;
  walks.reserve(static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    const auto from = net.random_peer();
    walks.push_back(net.route(from, net.random_object_id()).path);
  }
  return walks;
}

std::vector<std::vector<net::NodeId>> chord_walks(chord::ChordNetwork& net,
                                                  int queries,
                                                  std::uint64_t seed) {
  std::vector<std::vector<net::NodeId>> walks;
  walks.reserve(static_cast<std::size_t>(queries));
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    const auto from = net.ring()[rng.next_index(net.ring().size())];
    std::vector<net::NodeId> path;
    net.route(from, rng.engine()(), &path);
    walks.push_back(std::move(path));
  }
  return walks;
}

struct TierResult {
  sim::MetricSet queries;
  net::CongestionStats congestion;
  double elapsed = 0.0;
};

/// Replay `walks` on a fresh shared simulator, one injection every `gap`,
/// through the overlay's transport (tier 0: no queueing; loaded tiers: the
/// queueing network, freshly installed so congestion stats cover exactly
/// this tier).
TierResult run_tier(overlay::RoutedOverlay& overlay,
                    const std::vector<std::vector<net::NodeId>>& walks,
                    double gap, bool loaded) {
  if (loaded) {
    overlay.install_queueing(congested_config());
  } else {
    overlay.uninstall_queueing();
  }
  net::Transport& transport = overlay.transport();
  TierResult r{sim::MetricSet(
                   std::log2(static_cast<double>(overlay.overlay_size()))),
               net::CongestionStats{}, 0.0};
  sim::Simulator sim;
  for (std::size_t i = 0; i < walks.size(); ++i) {
    sim.schedule_at(static_cast<double>(i) * gap, [&, i] {
      transport.deliver_walk(
          sim, walks[i],
          [&r](const sim::QueryStats& s) { r.queries.add(s); });
    });
  }
  sim.run();
  r.congestion = overlay.congestion();
  r.elapsed = sim.now();
  return r;
}

void record_tier(Table& table, const std::string& overlay,
                 const std::string& model, int tier, std::size_t n,
                 const TierResult& r, double baseline_p99) {
  const double p99 = r.queries.latency_percentiles().p99();
  const double util =
      r.congestion.service_utilization(r.elapsed, n);
  table.add_row(
      {overlay, model, "load" + std::to_string(tier),
       Table::cell(tier_gap(tier, n)), Table::cell(static_cast<std::uint64_t>(n)),
       Table::cell(r.queries.latency().mean_or(0.0)), Table::cell(p99),
       Table::cell(baseline_p99 > 0.0 ? p99 / baseline_p99 : 1.0),
       Table::cell(r.queries.queue_delay().mean_or(0.0)), Table::cell(util),
       Table::cell(r.congestion.egress_depth_peak),
       Table::cell(r.congestion.departures_saved())});
  JsonSink::instance().record(
      "congestion", overlay + "/" + model + "/load" + std::to_string(tier),
      {{"tier", static_cast<double>(tier)},
       {"gap", tier_gap(tier, n)},
       {"n", static_cast<double>(n)},
       {"queries", static_cast<double>(r.queries.latency().count())}},
      {{"latency_mean", r.queries.latency().mean_or(0.0)},
       {"latency_p50", r.queries.latency_percentiles().p50()},
       {"latency_p95", r.queries.latency_percentiles().p95()},
       {"latency_p99", p99},
       {"p99_vs_baseline", baseline_p99 > 0.0 ? p99 / baseline_p99 : 1.0},
       {"queue_delay_mean", r.queries.queue_delay().mean_or(0.0)},
       {"bytes_mean", r.queries.bytes_on_wire().mean_or(0.0)},
       {"messages_mean", r.queries.messages().mean_or(0.0)},
       {"service_utilization", util},
       {"egress_depth_peak",
        static_cast<double>(r.congestion.egress_depth_peak)},
       {"ingress_depth_peak",
        static_cast<double>(r.congestion.ingress_depth_peak)},
       {"wire_messages", static_cast<double>(r.congestion.messages)},
       {"wire_departures", static_cast<double>(r.congestion.batches)},
       {"departures_saved",
        static_cast<double>(r.congestion.departures_saved())},
       {"batch_occupancy_mean", r.congestion.batch_occupancy_mean()}});
}

void run_cell(Table& table, const std::string& overlay_name,
              overlay::RoutedOverlay& overlay, const std::string& model_name,
              const std::vector<std::vector<net::NodeId>>& walks,
              const std::shared_ptr<obs::TraceRecorder>& recorder = nullptr) {
  const std::size_t n = overlay.overlay_size();
  double baseline_p99 = 0.0;
  double knee_tier = 0.0;
  for (int tier = 0; tier < kTiers; ++tier) {
    // Trace the uncongested baseline (clean span trees, no violations)
    // and the top load tier (where the delay-bound auditor fires).
    const bool traced =
        recorder != nullptr && (tier == 0 || tier == kTiers - 1);
    if (traced) {
      overlay.transport().attach_trace(recorder);
    }
    const TierResult r = run_tier(overlay, walks, tier_gap(tier, n), tier > 0);
    if (traced) {
      overlay.transport().detach_trace();
    }
    const double p99 = r.queries.latency_percentiles().p99();
    if (tier == 0) {
      baseline_p99 = p99;
    } else if (knee_tier == 0.0 && p99 > kKneeFactor * baseline_p99) {
      knee_tier = static_cast<double>(tier);
    }
    record_tier(table, overlay_name, model_name, tier, n, r, baseline_p99);
  }
  overlay.uninstall_queueing();
  JsonSink::instance().record(
      "congestion_knee", overlay_name + "/" + model_name,
      {{"n", static_cast<double>(n)}},
      {{"knee_tier", knee_tier}, {"baseline_p99", baseline_p99}});
}

// ---------------------------------------------------------------------------
// Closed-loop goodput sweep.
//
// The latency tiers above are open loop: senders inject blindly, queues
// absorb everything, and past saturation the delay bound the paper promises
// is gone. This sweep drives real PIRA range queries (not replayed walks)
// plus a background kRepair stream over ONE shared simulator per tier,
// under strict priority scheduling, twice per tier: open loop, and closed
// loop (backlog backoff + overload admission control, which degrades
// queries into partial answers carrying stats.coverage). Goodput is served
// coverage per unit time; the closed-loop curve must rise with offered
// load and then plateau — no collapse — while admission keeps query delay
// bounded and strict priority keeps the repair class unstarved. The CI
// benchsmoke leg asserts all of that from the "congestion_goodput" feed.
// ---------------------------------------------------------------------------

constexpr int kGoodputTiers = 5;
/// 4x offered-load steps at the 16-node reference size (same n-relative
/// normalization as tier_gap); the top tiers sit well past saturation.
constexpr double kGoodputBaseGaps[kGoodputTiers] = {2.0, 0.5, 0.125, 0.03125,
                                                    0.0078125};
constexpr double kGoodputRange = 20.0;
/// One background repair delivery per this many query injections.
constexpr int kRepairEvery = 4;

double goodput_gap(int tier, std::size_t n) {
  const double nodes = static_cast<double>(n);
  return kGoodputBaseGaps[tier] * (4.0 * std::log2(nodes) / nodes);
}

/// Strict-priority variant of the congested config; `closed_loop` adds the
/// sender discipline (linear backlog backoff + admission control).
net::QueueingConfig goodput_config(bool closed_loop) {
  net::QueueingConfig cfg = congested_config();
  cfg.scheduling = net::QueueingConfig::Scheduling::kStrict;
  if (closed_loop) {
    cfg.flow.backoff_threshold = 4;
    cfg.flow.backoff = 0.5;
    cfg.flow.admission_limit = 12;
  }
  return cfg;
}

/// Workload precomputed once and shared by every tier and loop mode, so
/// cells differ only in offered load and sender discipline.
struct GoodputWorkload {
  std::vector<fissione::PeerId> issuers;
  std::vector<sim::RangeQuery> ranges;
  std::vector<std::pair<fissione::PeerId, fissione::PeerId>> repairs;
};

GoodputWorkload make_goodput_workload(fissione::FissioneNetwork& net,
                                      int queries, std::uint64_t seed) {
  GoodputWorkload w;
  sim::RangeWorkload ranges({kDomainLo, kDomainHi}, kGoodputRange, Rng(seed));
  for (int q = 0; q < queries; ++q) {
    w.issuers.push_back(net.random_peer());
    w.ranges.push_back(ranges.next());
  }
  for (int j = 0; j * kRepairEvery < queries; ++j) {
    const auto a = net.random_peer();
    auto b = net.random_peer();
    while (b == a) {
      b = net.random_peer();
    }
    w.repairs.emplace_back(a, b);
  }
  return w;
}

struct GoodputTier {
  sim::MetricSet queries;
  OnlineStats repair_qd;
  net::CongestionStats congestion;
  double elapsed = 0.0;

  /// Served coverage per unit time: the useful-work rate after admission
  /// control degraded what it had to.
  double goodput() const {
    return elapsed > 0.0 ? queries.coverage().sum() / elapsed : 0.0;
  }
};

GoodputTier run_goodput_tier(core::ArmadaIndex& index,
                             fissione::FissioneNetwork& net,
                             const GoodputWorkload& w, double gap,
                             bool closed_loop,
                             const std::string& timeseries_name = "",
                             std::string* timeseries_out = nullptr) {
  net.install_queueing(goodput_config(closed_loop));
  net::Transport& transport = net.transport();
  GoodputTier r{sim::MetricSet(
                    std::log2(static_cast<double>(net.num_peers()))),
                OnlineStats{}, net::CongestionStats{}, 0.0};
  sim::Simulator sim;
  // Per-class time-series sampling (traced runs): ticks read cumulative
  // congestion counters, live backlog probes, and served coverage into a
  // fresh registry. Ticks stop at the injection end, so they never extend
  // sim.now() — the goodput numbers stay identical to an unsampled run.
  obs::Registry registry;
  obs::Sampler sampler(registry, [&](obs::Registry& reg) {
    obs::publish(reg, "net", net.congestion());
    double ingress = 0.0;
    double egress = 0.0;
    if (const net::Queueing* q = transport.queueing(); q != nullptr) {
      for (fissione::PeerId p : net.alive_peers()) {
        ingress += static_cast<double>(q->ingress_backlog(sim, p));
        egress += static_cast<double>(q->egress_backlog(sim, p));
      }
    }
    reg.set("net.ingress_backlog", ingress);
    reg.set("net.egress_backlog", egress);
    reg.set("query.completed",
            static_cast<double>(r.queries.coverage().count()));
    reg.set("query.coverage_mean", r.queries.coverage().mean_or(1.0));
    reg.set("query.goodput", sim.now() > 0.0
                                 ? r.queries.coverage().sum() / sim.now()
                                 : 0.0);
  });
  if (timeseries_out != nullptr) {
    const double horizon = static_cast<double>(w.issuers.size()) * gap;
    sampler.schedule(sim, 0.0, horizon, std::max(gap, horizon / 32.0));
  }
  for (std::size_t i = 0; i < w.issuers.size(); ++i) {
    sim.schedule_at(static_cast<double>(i) * gap, [&, i] {
      index.range_query_async(
          sim, w.issuers[i], w.ranges[i].lo, w.ranges[i].hi,
          [&r](core::RangeQueryResult res) { r.queries.add(res.stats); });
    });
  }
  for (std::size_t j = 0; j < w.repairs.size(); ++j) {
    sim.schedule_at((static_cast<double>(j) * kRepairEvery + 0.5) * gap,
                    [&, j] {
                      transport.deliver(
                          sim, w.repairs[j].first, w.repairs[j].second,
                          transport.default_message_bytes(),
                          [&r](sim::Time qd) { r.repair_qd.add(qd); }, 0.0,
                          net::TrafficClass::kRepair);
                    });
  }
  sim.run();
  if (timeseries_out != nullptr) {
    *timeseries_out += sampler.jsonl(timeseries_name);
  }
  r.congestion = net.congestion();
  r.elapsed = sim.now();
  net.uninstall_queueing();
  return r;
}

void run_goodput_sweep(std::size_t n, int queries, std::uint64_t seed,
                       const std::shared_ptr<obs::TraceRecorder>& recorder =
                           nullptr,
                       std::string* timeseries_out = nullptr) {
  ArmadaSetup setup(n, scaled(1024, 64), seed);
  fissione::FissioneNetwork& net = setup.net();
  const GoodputWorkload w = make_goodput_workload(net, queries, seed ^ 0x5afe);
  Table table({"Load", "Gap", "Goodput", "OpenGput", "Coverage", "Shed",
               "QryQD", "RepQD", "LatMean", "OpenLat"});
  for (int tier = 0; tier < kGoodputTiers; ++tier) {
    const double gap = goodput_gap(tier, n);
    const GoodputTier open =
        run_goodput_tier(setup.index(), net, w, gap, false);
    // Traced runs: the top closed-loop tier carries the recorder (real
    // PIRA queries past saturation — sheds, partial coverage, and
    // delay-bound violations all fire) and every closed tier contributes
    // a per-class time series.
    const bool traced = recorder != nullptr && tier == kGoodputTiers - 1;
    if (traced) {
      net.transport().attach_trace(recorder);
    }
    const GoodputTier closed =
        run_goodput_tier(setup.index(), net, w, gap, true,
                         "goodput/load" + std::to_string(tier),
                         timeseries_out);
    if (traced) {
      net.transport().detach_trace();
    }
    table.add_row(
        {"load" + std::to_string(tier), Table::cell(gap),
         Table::cell(closed.goodput()), Table::cell(open.goodput()),
         Table::cell(closed.queries.coverage().mean_or(1.0)),
         Table::cell(closed.congestion.shed_messages),
         Table::cell(closed.congestion.class_queue_delay_mean(
             net::TrafficClass::kQuery)),
         Table::cell(closed.congestion.class_queue_delay_mean(
             net::TrafficClass::kRepair)),
         Table::cell(closed.queries.latency().mean_or(0.0)),
         Table::cell(open.queries.latency().mean_or(0.0))});
    JsonSink::instance().record(
        "congestion_goodput", "fissione/constant/load" + std::to_string(tier),
        {{"tier", static_cast<double>(tier)},
         {"gap", gap},
         {"n", static_cast<double>(n)},
         {"queries", static_cast<double>(closed.queries.coverage().count())}},
        {{"goodput", closed.goodput()},
         {"open_goodput", open.goodput()},
         {"coverage_mean", closed.queries.coverage().mean_or(1.0)},
         {"shed_branches", closed.queries.shed().sum()},
         {"shed_messages",
          static_cast<double>(closed.congestion.shed_messages)},
         {"query_qd_mean", closed.congestion.class_queue_delay_mean(
                               net::TrafficClass::kQuery)},
         {"repair_qd_mean", closed.congestion.class_queue_delay_mean(
                                net::TrafficClass::kRepair)},
         {"repair_messages",
          static_cast<double>(closed.congestion.class_messages[class_index(
              net::TrafficClass::kRepair)])},
         {"latency_mean", closed.queries.latency().mean_or(0.0)},
         {"latency_p99", closed.queries.latency_percentiles().p99()},
         {"open_latency_mean", open.queries.latency().mean_or(0.0)},
         {"open_latency_p99", open.queries.latency_percentiles().p99()},
         {"elapsed", closed.elapsed},
         {"open_elapsed", open.elapsed}});
  }
  print_tables(
      "Goodput vs offered load (strict priority; closed loop = backoff + "
      "admission control, partial answers carry coverage)",
      table);
}

}  // namespace

int main() {
  Table table({"Overlay", "Model", "Load", "Gap", "N", "LatMean", "LatP99",
               "VsBase", "QDelay", "Util", "EgPeak", "Saved"});
  // This bench sweeps offered load, not network size (fig7/fig8 own the
  // size axis): a moderate node count keeps contention dense enough that
  // the load tiers land on the rising part of the latency curve instead of
  // diluting over thousands of idle servers.
  const std::size_t kN = scaled(128);
  // High floor: the load signal needs enough temporally overlapping walks
  // to queue even at smoke scale, or every tier degenerates to the fixed
  // per-message service cost and the knee disappears.
  const int kQueries = static_cast<int>(scaled(600, 96));
  // Traced run: one shared recorder covers the fissione/constant cell and
  // the goodput sweep. Delay bound 2*log2(n): uncongested walks (at most
  // the Kautz diameter ~ log n hops of unit propagation) sit comfortably
  // inside it, while top-tier queries — whose hops each pay ~4 time units
  // of service plus queueing — blow through it, so the auditor always
  // attributes at least one slow query.
  std::shared_ptr<obs::TraceRecorder> recorder;
  if (trace_dir() != nullptr) {
    obs::TraceConfig tc;
    tc.sample_period = 4;
    tc.seed = kSeed;
    tc.delay_bound = 2.0 * std::log2(static_cast<double>(kN));
    recorder = std::make_shared<obs::TraceRecorder>(tc);
  }
  for (const auto& model : bench_latency_models(kSeed)) {
    {
      auto net = fissione::FissioneNetwork::build(kN, kSeed);
      net.set_latency_model(model);
      const auto walks = fissione_walks(net, kQueries);
      const bool traced_cell = model->name() == std::string("constant");
      run_cell(table, "fissione", net, model->name(), walks,
               traced_cell ? recorder : nullptr);
    }
    {
      chord::ChordNetwork net(kN, kSeed);
      net.set_latency_model(model);
      const auto walks = chord_walks(net, kQueries, kSeed + 13);
      run_cell(table, "chord", net, model->name(), walks);
    }
  }
  print_tables(
      "Query latency under congestion (offered load x latency model; tier 0 "
      "is the uncongested baseline, gaps shrink 4x per tier)",
      table);
  // One closed-loop cell (FISSIONE + ConstantHop) is enough for the
  // goodput story: the sender discipline, not the latency model, is what
  // the sweep isolates.
  std::string timeseries;
  run_goodput_sweep(kN, kQueries, kSeed ^ 0x60d, recorder,
                    recorder != nullptr ? &timeseries : nullptr);
  if (recorder != nullptr) {
    const std::string dir = trace_dir();
    obs::write_text_file(dir + "/congestion_trace.json",
                         recorder->chrome_trace_json());
    obs::write_text_file(dir + "/congestion_spans.jsonl",
                         recorder->spans_jsonl());
    obs::write_text_file(dir + "/congestion_slow.jsonl",
                         recorder->slow_queries_jsonl());
    obs::write_text_file(dir + "/congestion_slow.log",
                         recorder->slow_query_log());
    obs::write_text_file(dir + "/congestion_timeseries.jsonl", timeseries);
    const std::string problem = recorder->validate();
    if (!problem.empty()) {
      std::fprintf(stderr, "trace invariant violated: %s\n", problem.c_str());
    }
    JsonSink::instance().record(
        "congestion_trace", "fissione/constant",
        {{"n", static_cast<double>(kN)},
         {"sample_period", static_cast<double>(recorder->config().sample_period)},
         {"delay_bound", recorder->config().delay_bound}},
        {{"roots_seen", static_cast<double>(recorder->roots_seen())},
         {"roots_sampled", static_cast<double>(recorder->roots_sampled())},
         {"spans_recorded", static_cast<double>(recorder->spans_recorded())},
         {"spans_dropped", static_cast<double>(recorder->spans_dropped())},
         {"violations", static_cast<double>(recorder->violations())},
         {"invariant_ok", problem.empty() ? 1.0 : 0.0}});
    if (!problem.empty()) {
      return 1;
    }
  }
  return 0;
}
