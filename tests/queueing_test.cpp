// Invariants of the congestion-aware queueing network (src/net/queueing.h)
// and its Transport integration:
//
//  * zero-queue bitwise equivalence — the default QueueingConfig reproduces
//    the transport without queueing exactly, for PIRA, the DCF-CAN flood
//    and walk replays, under every latency model;
//  * exact reservation arithmetic — service, bandwidth and coalescing
//    produce the delivery instants the model promises;
//  * per-link FIFO order is preserved under coalescing and random load;
//  * the backlog probes and depth peaks match brute-force models of every
//    send under random load, and link state survives node-table growth;
//  * message conservation — sent == delivered + in-flight at every event
//    boundary, and the queue drains to zero;
//  * p99 latency is monotone in offered load;
//  * repair batching — churn-driver repair through the coalescer saves
//    departures and stays deterministic;
//  * traffic classes — kFifo timing is class-blind, kStrict serves repair
//    ahead of handoff and both ahead of query backlog;
//  * closed-loop flow control — the admission probe's shed and backoff
//    track ingress backlog, and admission control degrades range queries
//    into partial answers whose stats.coverage is the exact served
//    fraction;
//  * one queue state per engine — a synchronous query nested inside a
//    shared simulator's event starts from empty queues and leaves that
//    simulator's backlog untouched, and in-flight deliveries survive the
//    engine being replaced or uninstalled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "chord/churn_driver.h"
#include "fissione/churn_driver.h"
#include "net/queueing.h"
#include "net/transport.h"
#include "rq/dcf_can.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/workload.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/check.h"
#include "util/rng.h"

namespace {

using namespace armada;

constexpr std::uint64_t kSeed = 424242;

net::QueueingConfig loaded_config() {
  net::QueueingConfig cfg;
  cfg.service_rate = 2.0;
  cfg.link_bandwidth = 512.0;
  cfg.default_message_bytes = 128;
  cfg.coalesce_window = 0.25;
  return cfg;
}

/// Fixed CI seeds, or the single ARMADA_FUZZ_SEED override (same contract
/// as integration_fuzz_test: a failing seed replays exactly).
std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("ARMADA_FUZZ_SEED")) {
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr,
                   "invalid ARMADA_FUZZ_SEED '%s' (expected an unsigned "
                   "integer)\n",
                   env);
      std::exit(2);
    }
    return {seed};
  }
  return {31, 32, 33};
}

// ---------------------------------------------------------------------------
// Zero-queue bitwise equivalence vs no queueing at all.
// ---------------------------------------------------------------------------

TEST(ZeroQueue, PiraQueriesBitwiseEqualStatelessUnderAllModels) {
  for (const auto& model : testsupport::all_latency_models(kSeed)) {
    auto baseline = testsupport::make_single_index(300, kSeed);
    auto queued = testsupport::make_single_index(300, kSeed);
    baseline->net.set_latency_model(model);
    queued->net.set_latency_model(model);
    // The default config is the zero-queue degenerate: installing it must
    // not move a single bit of any query result.
    queued->net.install_queueing(net::QueueingConfig{});
    ASSERT_FALSE(queued->net.queueing_active());

    Rng issuers_a(kSeed + 1);
    Rng issuers_b(kSeed + 1);
    sim::RangeWorkload workload_a({0.0, 1000.0}, 120.0, Rng(kSeed + 2));
    sim::RangeWorkload workload_b({0.0, 1000.0}, 120.0, Rng(kSeed + 2));
    for (int q = 0; q < 40; ++q) {
      const auto rq_a = workload_a.next();
      const auto rq_b = workload_b.next();
      const auto a = baseline->index.range_query(
          baseline->random_issuer(issuers_a), rq_a.lo, rq_a.hi);
      const auto b = queued->index.range_query(
          queued->random_issuer(issuers_b), rq_b.lo, rq_b.hi);
      ASSERT_EQ(a.stats, b.stats) << "model " << model->name();
      ASSERT_EQ(a.matches, b.matches);
      ASSERT_EQ(a.destinations, b.destinations);
      ASSERT_EQ(b.stats.queue_delay, 0.0);
    }
  }
}

TEST(ZeroQueue, DcfFloodBitwiseEqualStatelessUnderAllModels) {
  for (const auto& model : testsupport::all_latency_models(kSeed)) {
    can::CanNetwork net_a(128, kSeed);
    can::CanNetwork net_b(128, kSeed);
    net_a.set_latency_model(model);
    net_b.set_latency_model(model);
    net_b.install_queueing(net::QueueingConfig{});
    rq::DcfCan dcf_a(net_a, rq::DcfCan::Config{});
    rq::DcfCan dcf_b(net_b, rq::DcfCan::Config{});
    Rng values(kSeed + 3);
    for (int i = 0; i < 200; ++i) {
      const double v = values.next_double(0.0, 1000.0);
      dcf_a.publish(v);
      dcf_b.publish(v);
    }
    Rng lo_rng(kSeed + 4);
    for (int q = 0; q < 25; ++q) {
      const double lo = lo_rng.next_double(0.0, 900.0);
      const auto a = dcf_a.query(7, lo, lo + 80.0);
      const auto b = dcf_b.query(7, lo, lo + 80.0);
      ASSERT_EQ(a.stats, b.stats) << "model " << model->name();
      ASSERT_EQ(a.destinations, b.destinations);
      ASSERT_EQ(a.matches, b.matches);
    }
  }
}

TEST(ZeroQueue, DeliverWalkMatchesPathLatencyArithmetic) {
  for (const auto& model : testsupport::all_latency_models(kSeed)) {
    auto net = fissione::FissioneNetwork::build(200, kSeed);
    net.set_latency_model(model);
    net.install_queueing(net::QueueingConfig{});
    net::Transport& transport = net.transport();
    Rng rng(kSeed + 5);
    for (int i = 0; i < 20; ++i) {
      const auto route = net.route(net.random_peer(), net.random_object_id());
      sim::Simulator sim;
      sim::QueryStats walk;
      transport.deliver_walk(sim, route.path,
                             [&walk](const sim::QueryStats& s) { walk = s; });
      sim.run();
      EXPECT_EQ(walk.latency, transport.path_latency(route.path));
      EXPECT_EQ(walk.queue_delay, 0.0);
      EXPECT_EQ(walk.messages,
                route.path.empty() ? 0u : route.path.size() - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Exact reservation arithmetic.
// ---------------------------------------------------------------------------

TEST(QueueingArithmetic, EgressAndIngressServiceSerialize) {
  net::Transport transport;  // ConstantHop (unit cost)
  net::QueueingConfig cfg;
  cfg.service_rate = 2.0;  // 0.5 per message, each direction
  transport.install_queueing(cfg);
  sim::Simulator sim;
  std::vector<sim::Time> delivered;
  std::vector<sim::Time> queue_delays;
  for (int i = 0; i < 3; ++i) {
    transport.deliver(sim, 0, 1, 0, [&](sim::Time qd) {
      delivered.push_back(sim.now());
      queue_delays.push_back(qd);
    });
  }
  sim.run();
  // Egress ready at 0.5/1.0/1.5; +1 propagation; ingress server adds 0.5
  // each, serialized: 2.0 / 2.5 / 3.0.
  ASSERT_EQ(delivered, (std::vector<sim::Time>{2.0, 2.5, 3.0}));
  ASSERT_EQ(queue_delays, (std::vector<sim::Time>{1.0, 1.5, 2.0}));
  const net::CongestionStats& stats = transport.congestion();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.batches, 3u);  // no coalescing window
  EXPECT_EQ(stats.egress_depth_peak, 3u);
  EXPECT_DOUBLE_EQ(stats.egress_busy_total, 1.5);
  EXPECT_DOUBLE_EQ(stats.queue_delay_total, 4.5);
}

TEST(QueueingArithmetic, BandwidthSerializesTheLink) {
  net::Transport transport;
  net::QueueingConfig cfg;
  cfg.link_bandwidth = 100.0;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  std::vector<sim::Time> delivered;
  transport.deliver(sim, 0, 1, 50, [&](sim::Time) {
    delivered.push_back(sim.now());
  });
  transport.deliver(sim, 0, 1, 50, [&](sim::Time) {
    delivered.push_back(sim.now());
  });
  sim.run();
  // tx = 0.5 each, serialized on the wire: arrivals 1.5 and 2.0.
  ASSERT_EQ(delivered, (std::vector<sim::Time>{1.5, 2.0}));
  EXPECT_EQ(transport.congestion().bytes_on_wire, 100u);
}

TEST(QueueingArithmetic, CoalescingWindowSharesOneDeparture) {
  net::Transport transport;
  net::QueueingConfig cfg;
  cfg.coalesce_window = 1.0;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  std::vector<std::pair<int, sim::Time>> delivered;
  auto send = [&](int tag) {
    transport.deliver(sim, 0, 1, 0, [&delivered, &sim, tag](sim::Time) {
      delivered.emplace_back(tag, sim.now());
    });
  };
  send(0);                                      // opens batch, departs at 1.0
  sim.schedule_at(0.5, [&] { send(1); });       // joins the open batch
  sim.schedule_at(2.5, [&] { send(2); });       // past departure: new batch
  sim.run();
  ASSERT_EQ(delivered.size(), 3u);
  // Batch members ride one departure (1.0) and arrive together at 2.0, in
  // FIFO order; the late message departs at 3.5 and arrives at 4.5.
  EXPECT_EQ(delivered[0], (std::pair<int, sim::Time>{0, 2.0}));
  EXPECT_EQ(delivered[1], (std::pair<int, sim::Time>{1, 2.0}));
  EXPECT_EQ(delivered[2], (std::pair<int, sim::Time>{2, 4.5}));
  const net::CongestionStats& stats = transport.congestion();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.departures_saved(), 1u);
}

// ---------------------------------------------------------------------------
// FIFO and conservation under random load.
// ---------------------------------------------------------------------------

TEST(QueueingInvariants, PerLinkFifoAndConservationUnderRandomLoad) {
  net::Transport transport;
  transport.install_queueing(loaded_config());
  const net::Queueing* queueing = transport.queueing();
  ASSERT_NE(queueing, nullptr);

  sim::Simulator sim;
  Rng rng(kSeed + 6);
  constexpr int kMessages = 400;
  constexpr net::NodeId kNodes = 8;
  std::uint64_t test_sent = 0;
  std::uint64_t test_delivered = 0;
  // Per-link send sequence numbers; deliveries must replay them in order.
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<int>> sent_seq;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<int>> seen_seq;
  for (int i = 0; i < kMessages; ++i) {
    const auto from = static_cast<net::NodeId>(rng.next_index(kNodes));
    auto to = static_cast<net::NodeId>(rng.next_index(kNodes - 1));
    to = to == from ? static_cast<net::NodeId>(kNodes - 1) : to;
    const auto bytes = static_cast<std::uint32_t>(rng.next_int(0, 300));
    const double at = rng.next_double(0.0, 40.0);
    sim.schedule_at(at, [&, from, to, bytes, i] {
      ++test_sent;
      sent_seq[{from, to}].push_back(i);
      transport.deliver(sim, from, to, bytes, [&, from, to, i](sim::Time qd) {
        EXPECT_GE(qd, 0.0);
        ++test_delivered;
        seen_seq[{from, to}].push_back(i);
        // Message conservation at an event boundary: everything sent was
        // either delivered or is still in flight.
        EXPECT_EQ(queueing->sent(), test_sent);
        EXPECT_EQ(queueing->delivered(), test_delivered);
        EXPECT_EQ(queueing->in_flight(), test_sent - test_delivered);
      });
    });
  }
  sim.run();
  EXPECT_EQ(test_delivered, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(queueing->in_flight(), 0u);
  EXPECT_EQ(transport.congestion().messages,
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(seen_seq, sent_seq);  // per-link FIFO survives coalescing
}

TEST(QueueingInvariants, BacklogProbesAndDepthPeakMatchBruteForceModels) {
  constexpr net::TrafficClass kClasses[] = {net::TrafficClass::kQuery,
                                            net::TrafficClass::kRepair,
                                            net::TrafficClass::kHandoff};
  constexpr std::size_t kReceivers = 3;
  constexpr std::size_t kSenders = 24;
  for (const std::uint64_t seed : fuzz_seeds()) {
    for (const bool strict : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " strict "
                                      << strict);
      net::QueueingConfig cfg = loaded_config();
      cfg.scheduling = strict ? net::QueueingConfig::Scheduling::kStrict
                              : net::QueueingConfig::Scheduling::kFifo;
      cfg.flow.backoff_threshold = 4;
      cfg.flow.backoff = 0.5;
      cfg.flow.admission_limit = 12;
      net::Queueing queueing(cfg);
      sim::Simulator sim;
      Rng rng(seed);
      // Per receiver (ids 0..kReceivers-1): every delivery instant send()
      // returned, and the FIFO that drops its completed head on each push.
      std::vector<std::vector<sim::Time>> delivered(kReceivers);
      std::vector<std::deque<sim::Time>> fifo(kReceivers);
      std::uint64_t peak = 0;
      std::size_t deepest = 0;
      std::size_t drained = 0;  // sends that found their receiver idle
      const auto send = [&] {
        const auto to = static_cast<net::NodeId>(rng.next_index(kReceivers));
        const auto from =
            static_cast<net::NodeId>(kReceivers + rng.next_index(kSenders));
        const auto bytes = static_cast<std::uint32_t>(rng.next_index(257));
        const sim::Time at =
            queueing.send(sim, from, to, bytes, rng.next_double(0.5, 1.5), {},
                          0.0, kClasses[rng.next_index(std::size(kClasses))]);
        delivered[to].push_back(at);
        std::deque<sim::Time>& model = fifo[to];
        while (!model.empty() && model.front() <= sim.now()) {
          model.pop_front();
        }
        model.push_back(at);
        peak = std::max<std::uint64_t>(peak, model.size());
        const auto outstanding = static_cast<std::size_t>(std::count_if(
            delivered[to].begin(), delivered[to].end(),
            [&sim](sim::Time t) { return t > sim.now(); }));
        deepest = std::max(deepest, outstanding);
        drained += outstanding == 1 ? 1 : 0;
        ASSERT_EQ(queueing.ingress_backlog(sim, to), outstanding);
        ASSERT_EQ(queueing.stats().ingress_depth_peak, peak);
        const net::Queueing::Admission verdict = queueing.admit_query(sim, to);
        EXPECT_EQ(verdict.shed, outstanding >= 12);
        EXPECT_EQ(verdict.backoff,
                  outstanding >= 4
                      ? 0.5 * static_cast<double>(outstanding - 3)
                      : 0.0);
      };
      // A burst past the receivers' service capacity (6 messages per unit
      // time in all), then a trickle the backlogs drain under.
      for (int i = 0; i < 900; ++i) {
        sim.schedule_at(i < 700 ? rng.next_double(0.0, 80.0)
                                : rng.next_double(80.0, 400.0),
                        send);
      }
      sim.run();
      for (net::NodeId r = 0; r < kReceivers; ++r) {
        EXPECT_EQ(queueing.ingress_backlog(sim, r), 0u);
      }
      // The burst reached the admission limit and the trickle found
      // drained receivers.
      EXPECT_GE(deepest, cfg.flow.admission_limit);
      EXPECT_GE(drained, 20u);
      EXPECT_EQ(queueing.stats().messages, 900u);
    }
  }
}

TEST(QueueingInvariants, LinkStateSurvivesNodeTableGrowth) {
  net::QueueingConfig cfg;
  cfg.coalesce_window = 1.0;
  net::Queueing queueing(cfg);
  sim::Simulator sim;
  // Opens a batch on 0 -> 1 that departs at 1.0.
  const sim::Time first = queueing.send(sim, 0, 1, 0, 1.0, {});
  // Grows the node table far past its entries for nodes 0 and 1.
  queueing.send(sim, 2, 4096, 0, 1.0, {});
  const std::uint64_t batches = queueing.stats().batches;
  sim.schedule_at(0.5, [&] {
    // Inside the window: joins the open batch and rides its departure.
    EXPECT_EQ(queueing.send(sim, 0, 1, 0, 1.0, {}), first);
    EXPECT_EQ(queueing.stats().batches, batches);
  });
  sim.run();
  EXPECT_EQ(first, 2.0);
  EXPECT_EQ(queueing.stats().messages, 3u);
}

TEST(QueueingInvariants, P99LatencyMonotoneInOfferedLoad) {
  auto net = fissione::FissioneNetwork::build(64, kSeed);
  std::vector<std::vector<net::NodeId>> walks;
  for (int i = 0; i < 64; ++i) {
    walks.push_back(net.route(net.random_peer(), net.random_object_id()).path);
  }
  net::QueueingConfig cfg = loaded_config();
  cfg.service_rate = 0.5;
  double previous = 0.0;
  for (const double gap : {4.0, 0.5, 0.0625}) {
    net.install_queueing(cfg);
    net::Transport& transport = net.transport();
    sim::MetricSet metrics(6.0);
    sim::Simulator sim;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      sim.schedule_at(static_cast<double>(i) * gap, [&, i] {
        transport.deliver_walk(
            sim, walks[i],
            [&metrics](const sim::QueryStats& s) { metrics.add(s); });
      });
    }
    sim.run();
    const double p99 = metrics.latency_percentiles().p99();
    EXPECT_GT(p99, previous) << "gap " << gap;
    EXPECT_GT(metrics.queue_delay().mean_or(0.0), 0.0);
    previous = p99;
  }
}

// ---------------------------------------------------------------------------
// Repair batching through the churn drivers.
// ---------------------------------------------------------------------------

sim::ChurnProcess::LifetimeConfig heavy_config(double horizon) {
  sim::ChurnProcess::LifetimeConfig cfg;
  cfg.shape = 1.2;
  cfg.scale = 2.0;
  cfg.arrival_rate = 1.5;
  cfg.crash_fraction = 0.1;
  cfg.horizon = horizon;
  return cfg;
}

TEST(RepairBatching, FissioneRepairCoalescesAndStaysDeterministic) {
  auto run = [](net::CongestionStats* wire) {
    auto net = fissione::FissioneNetwork::build(200, kSeed);
    net::QueueingConfig cfg;
    cfg.default_message_bytes = 128;
    cfg.link_bandwidth = 4096.0;
    cfg.coalesce_window = 0.5;
    net.install_queueing(cfg);
    for (int i = 0; i < 300; ++i) {
      net.publish(net.random_object_id(), static_cast<std::uint64_t>(i));
    }
    sim::Simulator sim;
    fissione::ChurnDriver driver(net, sim);
    driver.schedule(
        sim::ChurnProcess::lifetimes(heavy_config(25.0), kSeed + 7));
    sim.run();
    *wire = net.congestion();
    return driver.stats();
  };
  net::CongestionStats wire_a;
  net::CongestionStats wire_b;
  const sim::ChurnStats stats_a = run(&wire_a);
  const sim::ChurnStats stats_b = run(&wire_b);
  EXPECT_EQ(stats_a, stats_b);
  EXPECT_EQ(wire_a, wire_b);
  EXPECT_GT(stats_a.events(), 0u);
  EXPECT_GT(wire_a.messages, 0u);
  EXPECT_LE(wire_a.batches, wire_a.messages);
  // A leave/crash hands objects and neighbor updates to the same absorbing
  // peer inside one event: those same-link repair messages must share
  // departures at least once over a whole schedule.
  EXPECT_GT(wire_a.departures_saved(), 0u);
  EXPECT_GT(stats_a.repair_latency_total, 0.0);
}

TEST(RepairBatching, ChordRepairCoalescesAndStaysDeterministic) {
  auto run = [](net::CongestionStats* wire) {
    chord::ChordNetwork net(200, kSeed);
    net::QueueingConfig cfg;
    cfg.default_message_bytes = 128;
    cfg.link_bandwidth = 4096.0;
    cfg.coalesce_window = 0.5;
    net.install_queueing(cfg);
    sim::Simulator sim;
    chord::ChurnDriver driver(net, sim);
    driver.schedule(
        sim::ChurnProcess::lifetimes(heavy_config(25.0), kSeed + 8));
    sim.run();
    *wire = net.congestion();
    return driver.stats();
  };
  net::CongestionStats wire_a;
  net::CongestionStats wire_b;
  const sim::ChurnStats stats_a = run(&wire_a);
  const sim::ChurnStats stats_b = run(&wire_b);
  EXPECT_EQ(stats_a, stats_b);
  EXPECT_EQ(wire_a, wire_b);
  EXPECT_GT(stats_a.events(), 0u);
  EXPECT_GT(wire_a.messages, 0u);
  EXPECT_LE(wire_a.batches, wire_a.messages);
  EXPECT_GT(stats_a.repair_latency_total, 0.0);
}

// ---------------------------------------------------------------------------
// CongestionStats interval accounting.
// ---------------------------------------------------------------------------

TEST(ZeroQueue, SizedMessagesAreNotZeroQueue) {
  EXPECT_TRUE(net::QueueingConfig{}.zero_queue());
  net::QueueingConfig cfg;
  cfg.default_message_bytes = 64;
  // Regression: a config that only sizes messages still prices them
  // (bytes_on_wire) and must not degenerate to the zero-queue config, which
  // would silently drop the byte accounting.
  EXPECT_FALSE(cfg.zero_queue());
  net::Transport transport;
  transport.install_queueing(cfg);
  EXPECT_TRUE(transport.queueing_active());
  sim::Simulator sim;
  sim::QueryStats walk;
  transport.deliver_walk(sim, {0, 1, 2},
                         [&walk](const sim::QueryStats& s) { walk = s; });
  sim.run();
  // Timing is untouched (nothing else is priced), but bytes are counted.
  EXPECT_EQ(walk.latency, 2.0);
  EXPECT_EQ(walk.bytes_on_wire, 128u);
  EXPECT_EQ(transport.congestion().bytes_on_wire, 128u);
}

TEST(CongestionStats, BatchOccupancyMeanIsOneWhenNothingCoalesced) {
  // Documented: 1.0 when nothing coalesced — including before any traffic.
  EXPECT_DOUBLE_EQ(net::CongestionStats{}.batch_occupancy_mean(), 1.0);
  net::Transport transport;
  net::QueueingConfig cfg;
  cfg.coalesce_window = 1.0;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  transport.deliver(sim, 0, 1, 0, [](sim::Time) {});
  transport.deliver(sim, 0, 1, 0, [](sim::Time) {});  // joins the batch
  transport.deliver(sim, 2, 3, 0, [](sim::Time) {});  // its own batch
  sim.run();
  EXPECT_DOUBLE_EQ(transport.congestion().batch_occupancy_mean(), 1.5);
}

// ---------------------------------------------------------------------------
// One queue state per engine.
// ---------------------------------------------------------------------------

TEST(QueueingInvariants, NestedSyncQueryStartsEmptyAndLeavesTheSharedBacklog) {
  // Two identical fixtures: `shared` runs a burst into one destination of
  // the query and issues the query from inside an event while the burst is
  // pending; `twin` runs the same query and the same burst apart.
  auto shared = testsupport::make_single_index(300, kSeed);
  auto twin = testsupport::make_single_index(300, kSeed);
  shared->net.install_queueing(loaded_config());
  twin->net.install_queueing(loaded_config());
  Rng issuers(kSeed + 13);
  const fissione::PeerId issuer = twin->random_issuer(issuers);
  const double lo = 200.0;
  const double hi = 420.0;

  const core::RangeQueryResult alone = twin->index.range_query(issuer, lo, hi);
  ASSERT_GE(alone.destinations.size(), 2u);
  const net::NodeId target = alone.destinations.back();
  ASSERT_NE(target, issuer);
  const net::NodeId sender = target == 0 ? 1 : 0;

  // A long burst into `target` at t = 0, still queued there when the
  // nested query's own messages reach it, and a short one at t = 1,
  // reserved after the query returns.
  auto schedule_bursts = [&](fissione::FissioneNetwork& net,
                             sim::Simulator& sim,
                             std::vector<sim::Time>* landed) {
    for (const int burst : {0, 1}) {
      const int count = burst == 0 ? 60 : 6;
      sim.schedule_at(burst, [&net, &sim, landed, sender, target, count] {
        for (int i = 0; i < count; ++i) {
          net.transport().deliver(
              sim, sender, target, 128,
              [&sim, landed](sim::Time) { landed->push_back(sim.now()); });
        }
      });
    }
  };

  std::vector<sim::Time> landed_apart;
  {
    sim::Simulator sim;
    schedule_bursts(twin->net, sim, &landed_apart);
    sim.run();
  }

  std::vector<sim::Time> landed_shared;
  core::RangeQueryResult nested;
  sim::Simulator sim;
  schedule_bursts(shared->net, sim, &landed_shared);
  sim.schedule_at(0.5, [&] {
    const net::Queueing& queueing = *shared->net.transport().queueing();
    const std::uint64_t sent = queueing.sent();
    const std::uint64_t in_flight = queueing.in_flight();
    const std::size_t backlog = queueing.ingress_backlog(sim, target);
    ASSERT_GT(in_flight, 0u);
    ASSERT_GT(backlog, 0u);
    nested = shared->index.range_query(issuer, lo, hi);
    EXPECT_EQ(queueing.sent(), sent);
    EXPECT_EQ(queueing.in_flight(), in_flight);
    EXPECT_EQ(queueing.ingress_backlog(sim, target), backlog);
    // A CheckError thrown inside a synchronous run still restores the
    // shared state on its way out.
    net::Transport& transport = shared->net.transport();
    const auto send_then_fail = [&](sim::Simulator& inner) {
      transport.deliver(inner, sender, target, 128, {});
      ARMADA_CHECK_MSG(false, "abort the synchronous run");
    };
    EXPECT_THROW(transport.run_sync(send_then_fail), CheckError);
    EXPECT_EQ(queueing.sent(), sent);
    EXPECT_EQ(queueing.in_flight(), in_flight);
    EXPECT_EQ(queueing.ingress_backlog(sim, target), backlog);
  });
  sim.run();

  EXPECT_EQ(nested.stats, alone.stats);
  EXPECT_EQ(nested.matches, alone.matches);
  EXPECT_EQ(nested.destinations, alone.destinations);
  EXPECT_GT(nested.stats.queue_delay, 0.0);  // the query did queue
  EXPECT_EQ(landed_shared, landed_apart);
  EXPECT_EQ(landed_shared.size(), 66u);
}

TEST(QueueingInvariants, InFlightDeliveriesSurviveEngineReplacement) {
  for (const bool replace : {true, false}) {
    net::Transport transport;
    transport.install_queueing(loaded_config());
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 4; ++i) {
      transport.deliver(sim, 0, 1, 64, [&fired](sim::Time) { ++fired; });
    }
    EXPECT_EQ(transport.queueing()->in_flight(), 4u);
    if (replace) {
      transport.install_queueing(loaded_config());
    } else {
      transport.uninstall_queueing();
    }
    // The old engine is gone; its deliveries still fire against the
    // counter they hold, never against freed state.
    sim.run();
    EXPECT_EQ(fired, 4) << (replace ? "replaced" : "uninstalled");
    if (replace) {
      EXPECT_EQ(transport.queueing()->sent(), 0u);
      EXPECT_EQ(transport.queueing()->delivered(), 0u);
    } else {
      EXPECT_EQ(transport.queueing(), nullptr);
    }
  }

  // Replaced from inside a synchronous run: the run keeps the old engine
  // alive until it ends, and the new engine never saw its traffic.
  net::Transport transport;
  transport.install_queueing(loaded_config());
  int fired = 0;
  transport.run_sync([&](sim::Simulator& sim) {
    transport.deliver(sim, 0, 1, 64, [&fired](sim::Time) { ++fired; });
    transport.install_queueing(loaded_config());
  });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(transport.queueing()->sent(), 0u);
  EXPECT_EQ(transport.queueing()->delivered(), 0u);
  EXPECT_EQ(transport.congestion().messages, 0u);
}

// ---------------------------------------------------------------------------
// Traffic classes and scheduling disciplines.
// ---------------------------------------------------------------------------

TEST(TrafficClasses, FifoTimingIsClassBlind) {
  constexpr net::TrafficClass kMix[] = {net::TrafficClass::kQuery,
                                        net::TrafficClass::kRepair,
                                        net::TrafficClass::kHandoff};
  auto run = [&](bool tagged, net::CongestionStats* stats) {
    net::Transport transport;
    transport.install_queueing(loaded_config());
    sim::Simulator sim;
    std::vector<sim::Time> delivered;
    for (int i = 0; i < 12; ++i) {
      transport.deliver(
          sim, 0, 1, 64,
          [&delivered, &sim](sim::Time) { delivered.push_back(sim.now()); },
          0.0, tagged ? kMix[i % std::size(kMix)] : net::TrafficClass::kQuery);
    }
    sim.run();
    *stats = transport.congestion();
    return delivered;
  };
  net::CongestionStats tagged_stats;
  net::CongestionStats untagged_stats;
  // Under the default kFifo discipline the class tag is pure accounting:
  // every delivery instant is bit-identical for any traffic mix.
  EXPECT_EQ(run(true, &tagged_stats), run(false, &untagged_stats));
  EXPECT_EQ(tagged_stats.queue_delay_total, untagged_stats.queue_delay_total);
  for (const net::TrafficClass cls : kMix) {
    EXPECT_EQ(tagged_stats.class_messages[net::class_index(cls)], 4u);
  }
  EXPECT_EQ(untagged_stats.class_messages[net::class_index(
                net::TrafficClass::kQuery)],
            12u);
}

TEST(TrafficClasses, StrictPriorityServesRepairAheadOfQueryBacklog) {
  net::Transport transport;  // ConstantHop (unit cost)
  net::QueueingConfig cfg;
  cfg.service_rate = 1.0;
  cfg.scheduling = net::QueueingConfig::Scheduling::kStrict;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  std::vector<sim::Time> query;
  std::vector<sim::Time> repair;
  std::vector<sim::Time> handoff;
  for (int i = 0; i < 3; ++i) {
    transport.deliver(
        sim, 0, 1, 0,
        [&query, &sim](sim::Time) { query.push_back(sim.now()); }, 0.0,
        net::TrafficClass::kQuery);
  }
  transport.deliver(
      sim, 0, 1, 0,
      [&repair, &sim](sim::Time) { repair.push_back(sim.now()); }, 0.0,
      net::TrafficClass::kRepair);
  transport.deliver(
      sim, 0, 1, 0,
      [&handoff, &sim](sim::Time) { handoff.push_back(sim.now()); }, 0.0,
      net::TrafficClass::kHandoff);
  sim.run();
  // Queries serialize behind each other (delivered 3/4/5). The repair —
  // sent after them — only waits for its own tier, so it lands at 3, ahead
  // of two-thirds of the query backlog. The handoff, sent last, waits for
  // the repair above it but not for the queries below: it lands at 4.
  EXPECT_EQ(query, (std::vector<sim::Time>{3.0, 4.0, 5.0}));
  EXPECT_EQ(repair, (std::vector<sim::Time>{3.0}));
  EXPECT_EQ(handoff, (std::vector<sim::Time>{4.0}));
  const net::CongestionStats& stats = transport.congestion();
  EXPECT_LT(stats.class_queue_delay_mean(net::TrafficClass::kRepair),
            stats.class_queue_delay_mean(net::TrafficClass::kQuery));
}

// ---------------------------------------------------------------------------
// Closed-loop flow control.
// ---------------------------------------------------------------------------

TEST(FlowControl, BackoffAndAdmissionProbesTrackIngressBacklog) {
  net::Transport transport;
  const net::Queueing::Admission none =
      transport.admit_query(sim::Simulator{}, 1);
  EXPECT_FALSE(none.shed);  // no engine, no policy
  EXPECT_EQ(none.backoff, 0.0);
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.flow.backoff_threshold = 2;
  cfg.flow.backoff = 0.5;
  cfg.flow.admission_limit = 3;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  const auto verdict = [&](net::NodeId to) {
    const net::Queueing::Admission a = transport.admit_query(sim, to);
    return std::pair<bool, sim::Time>{a.shed, a.backoff};
  };
  EXPECT_EQ(verdict(1), (std::pair<bool, sim::Time>{false, 0.0}));
  // One outstanding ingress reservation at node 1 per delivery. Backoff
  // starts at the threshold, 0.5 per message of backlog from there on;
  // admission is refused from the limit on.
  const std::pair<bool, sim::Time> expected[] = {
      {false, 0.0}, {false, 0.5}, {true, 1.0}};
  for (std::size_t depth = 1; depth <= 3; ++depth) {
    transport.deliver(sim, 0, 1, 0, [](sim::Time) {});
    ASSERT_EQ(transport.queueing()->ingress_backlog(sim, 1), depth);
    EXPECT_EQ(verdict(1), expected[depth - 1]) << "depth " << depth;
  }
  // At the limit a query message is shed, untouched by the queues; repair
  // and handoff traffic is never asked and still queues.
  sim::QueryStats stats;
  EXPECT_FALSE(transport.send_query(sim, 0, 1, stats, [](sim::Time) {}));
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(transport.congestion().shed_messages, 1u);
  for (const net::TrafficClass cls :
       {net::TrafficClass::kRepair, net::TrafficClass::kHandoff}) {
    transport.deliver(sim, 0, 1, 0, [](sim::Time) {}, 0.0, cls);
  }
  EXPECT_EQ(transport.queueing()->ingress_backlog(sim, 1), 5u);
  EXPECT_EQ(transport.congestion().messages, 5u);
  // Unloaded target: no policy pressure.
  EXPECT_EQ(verdict(2), (std::pair<bool, sim::Time>{false, 0.0}));
  sim.run();
  // Drained: the probe relaxes again.
  EXPECT_EQ(verdict(1), (std::pair<bool, sim::Time>{false, 0.0}));
}

TEST(FlowControl, AdmissionShedsWalkWithZeroCoverage) {
  net::Transport transport;
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.flow.admission_limit = 2;
  transport.install_queueing(cfg);
  sim::Simulator sim;
  for (int i = 0; i < 3; ++i) {
    transport.deliver(sim, 0, 1, 0, [](sim::Time) {});
  }
  sim::QueryStats walk;
  int completions = 0;
  transport.deliver_walk(sim, {0, 1, 2}, [&](const sim::QueryStats& s) {
    walk = s;
    ++completions;
  });
  sim.run();
  // The first hop's target is over the admission limit: the whole walk is
  // refused and the answer carries zero coverage.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(walk.coverage, 0.0);
  EXPECT_EQ(walk.shed, 1u);
  EXPECT_EQ(walk.messages, 0u);
  EXPECT_EQ(transport.congestion().shed_messages, 1u);
}

TEST(FlowControl, AdmissionDegradesRangeQueriesIntoPartialCoverage) {
  auto fx = testsupport::make_single_index(300, kSeed);
  net::QueueingConfig cfg;
  cfg.service_rate = 0.5;
  cfg.link_bandwidth = 1024.0;
  cfg.default_message_bytes = 256;
  cfg.scheduling = net::QueueingConfig::Scheduling::kStrict;
  cfg.flow.admission_limit = 4;
  fx->net.install_queueing(cfg);
  sim::Simulator sim;
  Rng issuers(kSeed + 11);
  sim::RangeWorkload workload({0.0, 1000.0}, 150.0, Rng(kSeed + 12));
  constexpr int kQueries = 60;
  std::vector<sim::RangeQuery> queries;
  // Completions arrive out of order: each lands in its query's slot.
  std::vector<std::optional<core::RangeQueryResult>> results(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    const auto rq = workload.next();
    queries.push_back(rq);
    const auto issuer = fx->random_issuer(issuers);
    sim.schedule_at(0.25 * q, [&, q, issuer, rq] {
      fx->index.range_query_async(
          sim, issuer, rq.lo, rq.hi,
          [&results, q](core::RangeQueryResult r) {
            ASSERT_FALSE(results[q].has_value());
            results[q] = std::move(r);
          });
    });
  }
  sim.run();
  bool any_partial = false;
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(results[q].has_value()) << "query " << q;
    const core::RangeQueryResult& r = *results[q];
    EXPECT_GE(r.stats.coverage, 0.0);
    EXPECT_LE(r.stats.coverage, 1.0);
    // Shed branches and partial coverage imply each other, per query.
    EXPECT_EQ(r.stats.shed > 0, r.stats.coverage < 1.0);
    // Coverage is exact: reached destinations over the structural
    // destination set of the query's region, computed bitwise the same way.
    const std::size_t structural =
        testsupport::expected_destinations(
            fx->net, fx->index.naming_tree().region_for(queries[q].lo,
                                                        queries[q].hi))
            .size();
    ASSERT_GT(structural, 0u);
    EXPECT_EQ(r.stats.coverage, static_cast<double>(r.stats.dest_peers) /
                                    static_cast<double>(structural))
        << "query " << q;
    any_partial |= r.stats.coverage < 1.0;
  }
  // The concurrent burst must overload some ingress: at least one query is
  // degraded (not refused silently — its coverage says how much survived).
  EXPECT_TRUE(any_partial);
  EXPECT_GT(fx->net.congestion().shed_messages, 0u);
}

TEST(CongestionStats, IntervalDeltaSubtractsAdditiveCounters) {
  net::Transport transport;
  transport.install_queueing(loaded_config());
  sim::Simulator sim;
  transport.deliver(sim, 0, 1, 64, [](sim::Time) {});
  sim.run();
  const net::CongestionStats snapshot = transport.congestion();
  transport.deliver(sim, 1, 2, 64, [](sim::Time) {});
  transport.deliver(sim, 1, 2, 64, [](sim::Time) {});
  sim.run();
  net::CongestionStats delta = transport.congestion();
  delta -= snapshot;
  EXPECT_EQ(delta.messages, 2u);
  EXPECT_EQ(delta.bytes_on_wire, 128u);
}

}  // namespace
