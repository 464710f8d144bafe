// Extension: Armada and the Chord baseline under *timed* churn.
//
// The paper evaluates static networks. Here membership change runs through
// the Simulator with transport-priced repair (sim::ChurnProcess + the
// per-overlay churn drivers), and queries race the repair protocol inside
// stale-route windows. The sweep is churn rate x latency model; rate 0 is
// the degenerate zero-delay batch — the seed bench's instant churn, kept as
// the backward-compatible baseline row.
//
// Round structure (per rate x model cell):
//   1. churn window: the schedule executes, and a probe query fires right
//      inside each event's stale window (observing detours / in-flight
//      misses);
//   2. quiesce: the simulator drains every repair delivery;
//   3. the ground truth is hoisted ONCE per round from the peer stores
//      (the seed bench silently rescanned it per query — the stores cannot
//      change between churn boundaries, and now that is asserted);
//   4. a query batch runs against the hoisted scan;
//   5. a re-scan must equal the hoisted scan: store contents only change
//      at churn boundaries.
#include "common.h"

#include "armada/churn_harness.h"
#include "chord/churn_driver.h"
#include "fissione/churn_driver.h"
#include "net/queueing.h"
#include "obs/publish.h"
#include "obs/registry.h"
#include "sim/churn.h"

namespace {

using namespace armada;
using namespace armada::bench;

constexpr std::uint64_t kSeed = 90;
constexpr double kRange = 100.0;
constexpr double kChurnSpan = 30.0;   // churn window per round
constexpr double kRoundSpan = 100.0;  // window + repair tail + query phase
constexpr int kRounds = 4;            // rounds 1.. churn; round 0 is static
/// Sentinel rate: heavy-tailed (Pareto) session lifetimes instead of a
/// Poisson event mix, with the repair-batching queueing network installed
/// so same-link repair updates coalesce into shared departures.
constexpr double kHeavyTailed = -1.0;
constexpr double kRates[] = {0.0, 0.5, 2.0, kHeavyTailed};

/// The heavy cell's queueing network: service stays unlimited (bench_
/// congestion owns the service-pressure axis) so the effect isolated here
/// is per-link repair batching — 0.25 coalescing window, 128-byte repair
/// messages against a 4 KiB/time link.
net::QueueingConfig repair_batching_config() {
  net::QueueingConfig cfg;
  cfg.link_bandwidth = 4096.0;
  cfg.default_message_bytes = 128;
  cfg.coalesce_window = 0.25;
  return cfg;
}

/// Bamboo-style heavy-tailed sessions for one round: Pareto lifetimes
/// (alpha 1.2, minimum 3 time units) over a Poisson session-start stream.
std::vector<sim::ChurnEvent> heavy_round(double start, std::uint64_t seed) {
  sim::ChurnProcess::LifetimeConfig cfg;
  cfg.shape = 1.2;
  cfg.scale = 3.0;
  cfg.arrival_rate = 1.0;
  cfg.crash_fraction = 0.1;
  cfg.start = start;
  cfg.horizon = start + kChurnSpan;
  return sim::ChurnProcess::lifetimes(cfg, seed);
}

std::vector<sim::ChurnEvent> poisson_round(double rate, double start,
                                           std::uint64_t seed) {
  sim::ChurnProcess::Config cfg;
  cfg.join_rate = rate * 0.50;
  cfg.leave_rate = rate * 0.40;
  cfg.crash_rate = rate * 0.10;
  cfg.start = start;
  cfg.horizon = start + kChurnSpan;
  return sim::ChurnProcess(cfg, seed).events();
}

/// The seed bench's instant batch (10% joins + 10% leave/crash, every 10th
/// departure a crash), as a zero-delay schedule at the round boundary.
std::vector<sim::ChurnEvent> instant_batch(std::size_t n, double at) {
  std::vector<sim::ChurnEvent> events;
  const std::size_t batch = n / 10;
  for (std::size_t i = 0; i < batch; ++i) {
    events.push_back({at, sim::ChurnEventKind::kJoin});
    events.push_back({at, i % 10 == 9 ? sim::ChurnEventKind::kCrash
                                      : sim::ChurnEventKind::kLeave});
  }
  return events;
}

std::string rate_label(double rate) {
  if (rate == 0.0) {
    return "instant";
  }
  if (rate == kHeavyTailed) {
    return "heavy";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rate%g", rate);
  return buf;
}

struct RoundDelta {
  sim::ChurnStats churn;  // stats delta for this round
  sim::MetricSet queries;
  /// Wire-side delta (all traffic through the queueing network this round);
  /// all-zero for the cells that run without queueing. departures_saved()
  /// is the message-count reduction repair batching bought.
  net::CongestionStats wire;
  std::uint64_t wrong = 0;
  std::uint64_t probes = 0;
};

sim::ChurnStats delta(const sim::ChurnStats& now, const sim::ChurnStats& was) {
  sim::ChurnStats d = now;
  d -= was;  // maxima stay cumulative, see ChurnStats::operator-=
  return d;
}

void record_round(const std::string& overlay, const std::string& model,
                  double rate, int round, std::size_t n,
                  const RoundDelta& r) {
  JsonSink::instance().record(
      "churn", overlay + "/" + model + "/" + rate_label(rate),
      {{"round", static_cast<double>(round)},
       {"rate", rate},
       {"n", static_cast<double>(n)}},
      {{"queries", static_cast<double>(r.queries.delay().count())},
       {"delay_mean", r.queries.delay().mean_or(0.0)},
       {"latency_mean", r.queries.latency().mean_or(0.0)},
       {"messages_mean", r.queries.messages().mean_or(0.0)},
       {"wrong", static_cast<double>(r.wrong)},
       {"probes", static_cast<double>(r.probes)},
       {"churn_events", static_cast<double>(r.churn.events())},
       {"repair_messages", static_cast<double>(r.churn.repair_messages)},
       {"repair_latency_mean", r.churn.repair_latency_mean()},
       {"repair_latency_max", r.churn.repair_latency_max},
       {"stale_queries", static_cast<double>(r.churn.stale_queries)},
       {"detours", static_cast<double>(r.churn.detours)},
       {"failed_queries", static_cast<double>(r.churn.failed_queries)},
       {"incomplete_queries",
        static_cast<double>(r.churn.incomplete_queries)},
       {"objects_missed", static_cast<double>(r.churn.objects_missed)},
       {"objects_handed_off",
        static_cast<double>(r.churn.objects_handed_off)},
       {"objects_dropped", static_cast<double>(r.churn.objects_dropped)},
       {"wire_messages", static_cast<double>(r.wire.messages)},
       {"wire_departures", static_cast<double>(r.wire.batches)},
       {"departures_saved", static_cast<double>(r.wire.departures_saved())},
       {"wire_bytes", static_cast<double>(r.wire.bytes_on_wire)},
       {"batch_occupancy_mean", r.wire.batch_occupancy_mean()}});
}

/// The unified-registry view of one finished cell: cumulative churn and
/// wire stats published through obs::publish (same adapters the traced
/// bench_congestion time series use), flattened into one feed record. The
/// per-round "churn" rows above keep their exact shapes; this row is the
/// cross-currency rollup keyed by instrument name.
void record_registry(const std::string& overlay, const std::string& model,
                     double rate, std::size_t n, const sim::ChurnStats& churn,
                     const net::CongestionStats& wire) {
  if (!JsonSink::instance().enabled()) {
    return;
  }
  obs::Registry reg;
  obs::publish(reg, "churn", churn);
  obs::publish(reg, "net", wire);
  std::vector<std::pair<std::string, double>> metrics;
  reg.visit([&metrics](const std::string& name, double value) {
    metrics.emplace_back(name, value);
  });
  JsonSink::instance().record(
      "churn_registry", overlay + "/" + model + "/" + rate_label(rate),
      {{"rate", rate}, {"n", static_cast<double>(n)}}, metrics);
}

void add_row(Table& table, const std::string& overlay,
             const std::string& model, double rate, int round, std::size_t n,
             const RoundDelta& r) {
  table.add_row({overlay, model, rate_label(rate),
                 Table::cell(static_cast<std::uint64_t>(round)),
                 Table::cell(static_cast<std::uint64_t>(n)),
                 Table::cell(r.queries.delay().mean_or(0.0)),
                 Table::cell(r.queries.latency().mean_or(0.0)),
                 Table::cell(static_cast<std::uint64_t>(r.wrong)),
                 Table::cell(static_cast<std::uint64_t>(
                     r.churn.repair_messages)),
                 Table::cell(r.churn.repair_latency_mean()),
                 Table::cell(static_cast<std::uint64_t>(
                     r.churn.stale_queries)),
                 Table::cell(static_cast<std::uint64_t>(r.churn.detours)),
                 Table::cell(static_cast<std::uint64_t>(
                     r.churn.incomplete_queries)),
                 Table::cell(r.wire.departures_saved())});
}

void run_fissione(Table& table, std::shared_ptr<const net::LatencyModel> model,
                  double rate) {
  const std::size_t kN = scaled(1000);
  auto net = fissione::FissioneNetwork::build(kN, kSeed);
  net.set_latency_model(model);
  const bool heavy = rate == kHeavyTailed;
  if (heavy) {
    net.install_queueing(repair_batching_config());
  }
  auto index = core::ArmadaIndex::single(net, {kDomainLo, kDomainHi});
  Rng pub(kSeed + 1);
  for (std::size_t i = 0; i < 2 * kN; ++i) {
    index.publish(pub.next_double(kDomainLo, kDomainHi));
  }

  sim::Simulator sim;
  fissione::ChurnDriver::Config dcfg;
  dcfg.zero_delay = rate == 0.0;
  fissione::ChurnDriver driver(net, sim, dcfg);
  core::ChurnHarness harness(index, driver);
  Rng probe_rng(kSeed + 2);

  for (int round = 0; round < kRounds; ++round) {
    // Congested replays can stretch a round past its nominal span (queued
    // deliveries drain after the churn window); the next round starts at
    // whichever is later. Uncongested cells keep the fixed boundaries.
    const double t0 = std::max(round * kRoundSpan, sim.now());
    const sim::ChurnStats before = driver.stats();
    const net::CongestionStats wire_before = net.congestion();
    RoundDelta r{sim::ChurnStats{},
                 sim::MetricSet(std::log2(static_cast<double>(kN))),
                 net::CongestionStats{}, 0, 0};
    if (round > 0) {
      const auto events =
          rate == 0.0    ? instant_batch(net.num_peers(), t0)
          : heavy        ? heavy_round(t0, kSeed + 7u * round)
                         : poisson_round(rate, t0, kSeed + 7u * round);
      for (const sim::ChurnEvent& e : events) {
        driver.schedule(e);
        // Probe fired right after the event, inside its stale window: a
        // stale issuer when a window is open, so every churn round records
        // at least one stale-window query outcome under a timed schedule.
        sim.schedule_at(e.at, [&] {
          const auto stale = driver.stale_nodes();
          const auto issuer =
              stale.empty() ? net.random_peer() : stale.front();
          const double lo = probe_rng.next_double(kDomainLo,
                                                  kDomainHi - kRange);
          harness.range_query(issuer, lo, lo + kRange);
          ++r.probes;
        });
      }
    }
    sim.run();  // drain the churn window and every repair delivery

    // Hoisted per-round ground truth: (value, handle) of everything the
    // surviving peers store, scanned once.
    auto scan = [&] {
      std::vector<std::pair<double, std::uint64_t>> objects;
      for (auto p : net.alive_peers()) {
        for (const auto& obj : net.peer(p).store) {
          objects.emplace_back(index.attributes(obj.payload)[0], obj.payload);
        }
      }
      std::sort(objects.begin(), objects.end());
      return objects;
    };
    const auto truth = scan();

    sim::RangeWorkload workload({kDomainLo, kDomainHi}, kRange,
                                Rng(kSeed + 3 + round));
    for (int q = 0; q < scaled_queries(150); ++q) {
      const auto rqy = workload.next();
      const auto out = harness.range_query(net.random_peer(), rqy.lo, rqy.hi);
      r.queries.add(out.stats);
      auto got = out.matches;
      std::sort(got.begin(), got.end());
      std::vector<std::uint64_t> expected;
      const auto lo_it = std::lower_bound(
          truth.begin(), truth.end(), std::make_pair(rqy.lo, std::uint64_t{0}));
      for (auto it = lo_it; it != truth.end() && it->first <= rqy.hi; ++it) {
        expected.push_back(it->second);
      }
      std::sort(expected.begin(), expected.end());
      if (got != expected) {
        ++r.wrong;
      }
    }

    // The query batch must not have perturbed the stores: contents change
    // only at churn boundaries.
    if (scan() != truth) {
      std::fprintf(stderr,
                   "store contents changed outside a churn boundary\n");
      std::exit(3);
    }

    r.churn = delta(driver.stats(), before);
    r.wire = net.congestion();
    r.wire -= wire_before;
    add_row(table, "fissione", model->name(), rate, round, net.num_peers(), r);
    record_round("fissione", model->name(), rate, round, net.num_peers(), r);
  }
  record_registry("fissione", model->name(), rate, net.num_peers(),
                  driver.stats(), net.congestion());
}

void run_chord(Table& table, std::shared_ptr<const net::LatencyModel> model,
               double rate) {
  const std::size_t kN = scaled(1000);
  chord::ChordNetwork net(kN, kSeed);
  net.set_latency_model(model);
  const bool heavy = rate == kHeavyTailed;
  if (heavy) {
    net.install_queueing(repair_batching_config());
  }

  sim::Simulator sim;
  chord::ChurnDriver::Config dcfg;
  dcfg.zero_delay = rate == 0.0;
  chord::ChurnDriver driver(net, sim, dcfg);
  Rng probe_rng(kSeed + 4);

  for (int round = 0; round < kRounds; ++round) {
    // Congested replays can stretch a round past its nominal span (queued
    // deliveries drain after the churn window); the next round starts at
    // whichever is later. Uncongested cells keep the fixed boundaries.
    const double t0 = std::max(round * kRoundSpan, sim.now());
    const sim::ChurnStats before = driver.stats();
    const net::CongestionStats wire_before = net.congestion();
    RoundDelta r{sim::ChurnStats{},
                 sim::MetricSet(std::log2(static_cast<double>(kN))),
                 net::CongestionStats{}, 0, 0};
    if (round > 0) {
      const auto events =
          rate == 0.0    ? instant_batch(net.num_nodes(), t0)
          : heavy        ? heavy_round(t0, kSeed + 11u * round)
                         : poisson_round(rate, t0, kSeed + 11u * round);
      for (const sim::ChurnEvent& e : events) {
        driver.schedule(e);
        sim.schedule_at(e.at, [&] {
          const auto stale = driver.stale_nodes();
          const auto issuer =
              stale.empty() ? net.random_node() : stale.front();
          driver.route(issuer, probe_rng.engine()());
          ++r.probes;
        });
      }
    }
    sim.run();

    Rng qrng(kSeed + 5 + round);
    for (int q = 0; q < scaled_queries(150); ++q) {
      const auto from = net.ring()[qrng.next_index(net.ring().size())];
      const chord::Key key = qrng.engine()();
      const auto out = driver.route(from, key);
      r.queries.add(out.stats);
      // No Wrong counter here: ChordNetwork::route asserts the owner
      // against ground truth internally, so correctness degradation under
      // staleness surfaces as detours / failed routes, not wrong owners.
    }

    r.churn = delta(driver.stats(), before);
    r.wire = net.congestion();
    r.wire -= wire_before;
    add_row(table, "chord", model->name(), rate, round, net.num_nodes(), r);
    record_round("chord", model->name(), rate, round, net.num_nodes(), r);
  }
  record_registry("chord", model->name(), rate, net.num_nodes(),
                  driver.stats(), net.congestion());
}

}  // namespace

int main() {
  Table table({"Overlay", "Model", "Rate", "Round", "N", "AvgDelay",
               "AvgLatency", "Wrong", "RepairMsgs", "RepairLatMean", "StaleQ",
               "Detours", "Incomplete", "SavedDep"});
  for (const auto& model : bench_latency_models(kSeed)) {
    for (double rate : kRates) {
      run_fissione(table, model, rate);
      run_chord(table, model, rate);
    }
  }
  print_tables(
      "Timed churn x query interleave (rate x latency model; rate 'instant' "
      "is the zero-delay batch schedule, 'heavy' is Pareto session lifetimes "
      "with per-link repair batching)",
      table);
  return 0;
}
