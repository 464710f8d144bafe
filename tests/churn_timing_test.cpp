// Timed-churn battery: membership events driven through the Simulator with
// transport-priced repair (sim::ChurnProcess + the per-overlay drivers).
//
// Covers, for FISSIONE and the Chord baseline:
//  * structural invariants at every event boundary (neighborhood invariant,
//    PeerID-length bound, finger-table consistency),
//  * repair message budgets,
//  * the floor guard both drivers share through overlay::ChurnCore,
//  * the zero-delay degenerate schedule reproducing the instant
//    join/leave/crash path bitwise,
//  * stale-route windows: queries racing repair detour or fail observably
//    and recover at quiescence,
//  * cross-run determinism of ChurnStats/QueryStats (same seed + same
//    trace => identical measurements from two independent stacks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "armada/churn_harness.h"
#include "chord/churn_driver.h"
#include "fissione/churn_driver.h"
#include "fissione/types.h"
#include "net/latency_model.h"
#include "obs/trace.h"
#include "rebalance/rebalance.h"
#include "sim/churn.h"
#include "sim/workload.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/rng.h"

namespace armada {
namespace {

using fissione::FissioneNetwork;
using sim::ChurnEvent;
using sim::ChurnEventKind;
using sim::ChurnProcess;
using testsupport::make_single_index;

std::vector<ChurnEvent> mixed_schedule(double rate, sim::Time horizon,
                                       std::uint64_t seed) {
  ChurnProcess::Config cfg;
  cfg.join_rate = rate * 0.45;
  cfg.leave_rate = rate * 0.40;
  cfg.crash_rate = rate * 0.15;
  cfg.horizon = horizon;
  return ChurnProcess(cfg, seed).events();
}

// The drivers list stale ids from a record of opened windows. Every probe
// checks that listing against a brute-force scan of the alive ids with
// is_stale, which is the listing's definition.
std::vector<fissione::PeerId> checked_stale_peers(
    fissione::ChurnDriver& driver) {
  std::vector<fissione::PeerId> scan;
  for (const fissione::PeerId p : driver.net().alive_peers()) {
    if (driver.is_stale(p)) {
      scan.push_back(p);
    }
  }
  std::sort(scan.begin(), scan.end());
  std::vector<fissione::PeerId> listed = driver.stale_nodes();
  EXPECT_EQ(listed, scan);
  return listed;
}

std::vector<chord::NodeId> checked_stale_nodes(chord::ChurnDriver& driver) {
  std::vector<chord::NodeId> scan;
  for (const chord::NodeId n : driver.net().ring()) {
    if (driver.is_stale(n)) {
      scan.push_back(n);
    }
  }
  std::sort(scan.begin(), scan.end());
  std::vector<chord::NodeId> listed = driver.stale_nodes();
  EXPECT_EQ(listed, scan);
  return listed;
}

TEST(ChurnProcess, PoissonScheduleIsDeterministicAndSorted) {
  const auto a = mixed_schedule(1.0, 80.0, 404);
  const auto b = mixed_schedule(1.0, 80.0, 404);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
    EXPECT_LT(a[i].at, 80.0);
  }
  // A different seed produces a different trace.
  const auto c = mixed_schedule(1.0, 80.0, 405);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().at, c.front().at);
}

/// Seed sweep for the lifetime-schedule determinism battery: the fixed CI
/// seeds, or the single ARMADA_FUZZ_SEED override (same contract as
/// integration_fuzz_test — a failing seed replays the exact schedule).
std::vector<std::uint64_t> lifetime_seeds() {
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
  return {11, 12, 13, 14};
}

TEST(ChurnProcess, HeavyTailedLifetimesAreDeterministicAndValid) {
  for (const std::uint64_t seed : lifetime_seeds()) {
    ChurnProcess::LifetimeConfig cfg;
    cfg.shape = 1.2;
    cfg.scale = 2.0;
    cfg.arrival_rate = 2.0;
    cfg.crash_fraction = 0.2;
    cfg.horizon = 60.0;
    const auto a = ChurnProcess::lifetimes(cfg, seed);
    const auto b = ChurnProcess::lifetimes(cfg, seed);
    ASSERT_FALSE(a.empty());
    // Pure function of (config, seed): bit-identical on every call.
    ASSERT_EQ(a.size(), b.size());
    std::size_t joins = 0;
    std::size_t departures = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].at, b[i].at);
      EXPECT_EQ(a[i].kind, b[i].kind);
      if (i > 0) {
        EXPECT_GE(a[i].at, a[i - 1].at);
      }
      EXPECT_GE(a[i].at, 0.0);
      EXPECT_LT(a[i].at, cfg.horizon);
      if (a[i].kind == ChurnEventKind::kJoin) {
        ++joins;
      } else {
        ++departures;
      }
    }
    // Every departure belongs to some session that joined earlier; a few
    // long-lived sessions outrun the horizon and never depart.
    EXPECT_GE(joins, departures);
    // A Pareto lifetime is at least the scale parameter, so no departure
    // can precede the first join by less than it.
    const auto first_departure =
        std::find_if(a.begin(), a.end(), [](const ChurnEvent& e) {
          return e.kind != ChurnEventKind::kJoin;
        });
    if (first_departure != a.end()) {
      EXPECT_GE(first_departure->at, a.front().at + cfg.scale);
    }
    // A different seed draws a different session stream.
    const auto c = ChurnProcess::lifetimes(cfg, seed + 1);
    ASSERT_FALSE(c.empty());
    EXPECT_NE(a.front().at, c.front().at);
  }
}

// --- invariants at event boundaries ----------------------------------------

TEST(FissioneTimedChurn, InvariantsHoldAtEveryEventBoundary) {
  auto fx = make_single_index(120, 9101);
  fx->net.set_latency_model(std::make_shared<net::TransitStub>(9102));
  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);

  const auto events = mixed_schedule(1.2, 60.0, 9103);
  ASSERT_GT(events.size(), 20u);
  int boundaries_checked = 0;
  for (const ChurnEvent& e : events) {
    driver.schedule(e);
    // FIFO tie order: this runs right after the membership event executes.
    sim.schedule_at(e.at, [&] {
      fx->net.check_invariants();
      EXPECT_LE(fx->net.max_neighbor_length_gap(), 1u);
      const double log_n =
          std::log2(static_cast<double>(fx->net.num_peers()));
      // Paper §3: max PeerID length < 2 log2 N (slack for tiny N).
      EXPECT_LT(static_cast<double>(fx->net.peer_id_length_histogram().max()),
                2.0 * log_n + 2.0);
      ++boundaries_checked;
    });
  }
  sim.run();
  EXPECT_EQ(boundaries_checked, static_cast<int>(events.size()));
  EXPECT_GT(driver.stats().events(), 0u);
  EXPECT_GT(driver.stats().repair_messages, 0u);
  EXPECT_GT(driver.stats().repair_latency_max, 0.0);
}

TEST(ChordTimedChurn, FingerTablesConsistentAtEveryEventBoundary) {
  chord::ChordNetwork net(150, 9201);
  net.set_latency_model(std::make_shared<net::UniformJitter>(9202));
  sim::Simulator sim;
  chord::ChurnDriver driver(net, sim);

  const auto events = mixed_schedule(1.0, 50.0, 9203);
  ASSERT_GT(events.size(), 15u);
  for (const ChurnEvent& e : events) {
    driver.schedule(e);
    sim.schedule_at(e.at, [&] { net.check_invariants(); });
  }
  sim.run();
  EXPECT_GT(driver.stats().events(), 0u);
  EXPECT_GT(driver.stats().repair_messages, 0u);
  EXPECT_GT(driver.stats().repair_latency_max, 0.0);
}

// --- repair message budget --------------------------------------------------

TEST(FissioneTimedChurn, RepairStaysWithinExpectedMessageBudget) {
  auto fx = make_single_index(100, 9301);
  testsupport::publish_uniform_values(fx->index, 300, 9302);
  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);

  const auto events = mixed_schedule(1.0, 50.0, 9303);
  for (const ChurnEvent& e : events) {
    sim.schedule_at(e.at, [&, kind = e.kind] {
      // Budget per event, from the overlay's structural bounds: placement
      // is one route (<= max PeerID length) plus one balancing walk
      // (strictly descending lengths), table updates go to the rewired
      // peers of at most three fusion/split sites (in-degree bounded), and
      // at most two batched handoffs.
      const auto& net = fx->net;
      const double max_len =
          static_cast<double>(net.peer_id_length_histogram().max());
      std::size_t max_degree = 0;
      for (fissione::PeerId p : net.alive_peers()) {
        max_degree = std::max(max_degree, net.peer(p).out_neighbors.size() +
                                              net.peer(p).in_neighbors.size());
      }
      const std::uint64_t before = driver.stats().repair_messages;
      driver.execute(kind);
      const std::uint64_t delta = driver.stats().repair_messages - before;
      EXPECT_LE(delta, static_cast<std::uint64_t>(
                           2.0 * max_len + 3.0 * static_cast<double>(
                                                     max_degree) + 8.0));
    });
  }
  sim.run();
  EXPECT_GT(driver.stats().events(), 0u);
}

// --- zero-delay degenerate schedule == instant churn ------------------------

TEST(FissioneTimedChurn, ZeroDelayScheduleMatchesInstantChurnBitwise) {
  constexpr std::uint64_t kSeed = 9401;
  auto timed = make_single_index(90, kSeed);
  auto instant = make_single_index(90, kSeed);
  testsupport::publish_uniform_values(timed->index, 200, kSeed + 1);
  testsupport::publish_uniform_values(instant->index, 200, kSeed + 1);

  sim::Simulator sim;
  fissione::ChurnDriver::Config cfg;
  cfg.zero_delay = true;
  fissione::ChurnDriver driver(timed->net, sim, cfg);

  const auto events = mixed_schedule(1.5, 40.0, 9402);
  ASSERT_GT(events.size(), 20u);
  driver.schedule(events);
  sim.run();

  // Twin evolution through the instant path, replicating the driver's
  // victim selection and floor guard.
  for (const ChurnEvent& e : events) {
    switch (e.kind) {
      case ChurnEventKind::kJoin:
        instant->net.join();
        break;
      case ChurnEventKind::kLeave:
        if (instant->net.num_peers() > fissione::ChurnDriver::kMinSize) {
          instant->net.leave(instant->net.random_peer());
        }
        break;
      case ChurnEventKind::kCrash:
        if (instant->net.num_peers() > fissione::ChurnDriver::kMinSize) {
          instant->net.crash(instant->net.random_peer());
        }
        break;
    }
  }

  // Bitwise-identical overlays: same membership, same structure, same
  // stores, same routes.
  ASSERT_EQ(timed->net.num_peers(), instant->net.num_peers());
  EXPECT_EQ(timed->net.total_objects(), instant->net.total_objects());
  EXPECT_EQ(timed->net.average_degree(), instant->net.average_degree());
  EXPECT_EQ(timed->net.peer_id_length_histogram().buckets(),
            instant->net.peer_id_length_histogram().buckets());
  timed->net.check_invariants();
  instant->net.check_invariants();

  Rng rng_a(9403);
  Rng rng_b(9403);
  for (int i = 0; i < 60; ++i) {
    const auto target =
        timed->net.kautz_hash("zero-delay" + std::to_string(i));
    const auto ra = timed->net.route(timed->random_issuer(rng_a), target);
    const auto rb = instant->net.route(instant->random_issuer(rng_b), target);
    EXPECT_EQ(ra.path, rb.path);
    EXPECT_EQ(ra.latency, rb.latency);
  }

  // Zero-delay means no stale windows and no repair latency — but the
  // repair traffic is still accounted.
  EXPECT_EQ(driver.stats().repair_latency_max, 0.0);
  EXPECT_GT(driver.stats().repair_messages, 0u);
  EXPECT_TRUE(checked_stale_peers(driver).empty());
  EXPECT_EQ(driver.objects_in_flight(), 0u);
}

TEST(ChordTimedChurn, ZeroDelayScheduleMatchesInstantChurnBitwise) {
  constexpr std::uint64_t kSeed = 9501;
  chord::ChordNetwork timed(80, kSeed);
  chord::ChordNetwork instant(80, kSeed);

  sim::Simulator sim;
  chord::ChurnDriver::Config cfg;
  cfg.zero_delay = true;
  chord::ChurnDriver driver(timed, sim, cfg);

  const auto events = mixed_schedule(1.0, 30.0, 9502);
  ASSERT_GT(events.size(), 10u);
  driver.schedule(events);
  sim.run();

  for (const ChurnEvent& e : events) {
    switch (e.kind) {
      case ChurnEventKind::kJoin:
        instant.join();
        break;
      case ChurnEventKind::kLeave:
        if (instant.num_nodes() > chord::ChurnDriver::kMinSize) {
          instant.leave(instant.random_node());
        }
        break;
      case ChurnEventKind::kCrash:
        if (instant.num_nodes() > chord::ChurnDriver::kMinSize) {
          instant.crash(instant.random_node());
        }
        break;
    }
  }

  ASSERT_EQ(timed.num_nodes(), instant.num_nodes());
  ASSERT_EQ(timed.ring().size(), instant.ring().size());
  for (std::size_t i = 0; i < timed.ring().size(); ++i) {
    EXPECT_EQ(timed.ring()[i], instant.ring()[i]);
    EXPECT_EQ(timed.node_key(timed.ring()[i]),
              instant.node_key(instant.ring()[i]));
  }
  timed.check_invariants();
  instant.check_invariants();

  Rng rng(9503);
  for (int i = 0; i < 80; ++i) {
    const auto from = timed.ring()[rng.next_index(timed.ring().size())];
    const chord::Key key = rng.engine()();
    std::vector<chord::NodeId> path_a;
    std::vector<chord::NodeId> path_b;
    const auto ra = timed.route(from, key, &path_a);
    const auto rb = instant.route(from, key, &path_b);
    EXPECT_EQ(path_a, path_b);
    EXPECT_EQ(ra.stats.latency, rb.stats.latency);
  }
  EXPECT_EQ(driver.stats().repair_latency_max, 0.0);
  EXPECT_TRUE(checked_stale_nodes(driver).empty());
}

// --- floor guard -------------------------------------------------------------

// Both drivers inherit ChurnCore's floor guard: at kMinSize nodes a leave or
// crash is skipped. A skipped event counts in skipped_events and nothing
// else — no membership change, no hook, no repair message, no stale window,
// no scheduled event.
struct FissioneAtFloor {
  using Driver = fissione::ChurnDriver;
  FissioneNetwork net = FissioneNetwork::build(Driver::kMinSize + 1, 9961);
  std::size_t size() const { return net.num_peers(); }
};

struct ChordAtFloor {
  using Driver = chord::ChurnDriver;
  chord::ChordNetwork net{Driver::kMinSize + 1, 9971};
  std::size_t size() const { return net.num_nodes(); }
};

template <typename Overlay>
class ChurnFloorGuard : public ::testing::Test {};
using FloorOverlays = ::testing::Types<FissioneAtFloor, ChordAtFloor>;
TYPED_TEST_SUITE(ChurnFloorGuard, FloorOverlays);

TYPED_TEST(ChurnFloorGuard, SkipsLeaveAndCrashAtTheFloor) {
  using Driver = typename TypeParam::Driver;
  TypeParam overlay;
  ASSERT_EQ(overlay.size(), Driver::kMinSize + 1);
  sim::Simulator sim;
  Driver driver(overlay.net, sim);
  int hooks = 0;
  driver.set_membership_hook([&] { ++hooks; });

  // One above the floor, a leave runs and opens repair windows.
  driver.execute(ChurnEventKind::kLeave);
  EXPECT_EQ(driver.stats().leaves, 1u);
  EXPECT_EQ(hooks, 1);
  ASSERT_EQ(overlay.size(), Driver::kMinSize);
  const std::uint64_t repair_messages = driver.stats().repair_messages;
  EXPECT_GT(repair_messages, 0u);
  const std::vector<std::uint32_t> stale = driver.stale_nodes();
  ASSERT_FALSE(stale.empty());

  // At the floor, a leave is skipped while those windows are still open.
  driver.execute(ChurnEventKind::kLeave);
  EXPECT_EQ(driver.stats().skipped_events, 1u);
  EXPECT_EQ(driver.stats().repair_messages, repair_messages);
  EXPECT_EQ(driver.stale_nodes(), stale);
  // Every event the simulator runs is one of the first leave's repair
  // deliveries (one event per message): the skipped leave scheduled none.
  sim.run();
  EXPECT_EQ(sim.events_processed(), repair_messages);
  EXPECT_TRUE(driver.stale_nodes().empty());

  // A crash at the floor is skipped too, on an idle simulator.
  ASSERT_TRUE(sim.idle());
  driver.execute(ChurnEventKind::kCrash);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(driver.stats().skipped_events, 2u);
  EXPECT_EQ(driver.stats().repair_messages, repair_messages);
  EXPECT_TRUE(driver.stale_nodes().empty());
  EXPECT_EQ(driver.stats().events(), 1u);
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(overlay.size(), Driver::kMinSize);

  // Joins are never floor-guarded.
  driver.execute(ChurnEventKind::kJoin);
  EXPECT_EQ(driver.stats().joins, 1u);
  EXPECT_EQ(driver.stats().skipped_events, 2u);
  EXPECT_EQ(hooks, 2);
  EXPECT_EQ(overlay.size(), Driver::kMinSize + 1);
  EXPECT_FALSE(sim.idle());
  overlay.net.check_invariants();
}

// --- stale windows: detour-or-fail, then recovery ---------------------------

TEST(FissioneTimedChurn, StaleWindowQueriesDetourOrFailThenRecover) {
  auto fx = make_single_index(60, 9601);
  testsupport::publish_uniform_values(fx->index, 240, 9602);
  fx->net.set_latency_model(std::make_shared<net::TransitStub>(9603));
  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);
  core::ChurnHarness harness(fx->index, driver);

  // A burst of leaves and crashes, each probed while its window is open.
  std::vector<ChurnEvent> trace;
  for (int i = 0; i < 10; ++i) {
    trace.push_back({1.0 + i, i % 3 == 2 ? ChurnEventKind::kCrash
                                         : ChurnEventKind::kLeave});
  }
  std::uint64_t probes_with_missing = 0;
  for (const ChurnEvent& e : trace) {
    driver.schedule(e);
    sim.schedule_at(e.at, [&] {
      // Probe from inside the stale window: full-domain query, so every
      // in-flight object is observably missing from the answer.
      const auto stale = checked_stale_peers(driver);
      ASSERT_FALSE(stale.empty());
      const auto out = harness.range_query(stale.front(), 0.0, 1000.0);
      EXPECT_TRUE(out.stale);
      if (out.missed > 0) {
        ++probes_with_missing;
      }
    });
  }
  sim.run();

  const sim::ChurnStats& stats = driver.stats();
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.stale_queries, 10u);
  EXPECT_GT(stats.detours + stats.objects_missed, 0u);
  EXPECT_GT(stats.objects_handed_off, 0u);
  EXPECT_GT(stats.objects_dropped, 0u);  // the crashes lost objects
  EXPECT_GT(probes_with_missing, 0u);

  // At quiescence every window is closed: queries are clean and exact.
  EXPECT_TRUE(checked_stale_peers(driver).empty());
  EXPECT_EQ(driver.objects_in_flight(), 0u);
  Rng rng(9604);
  for (int i = 0; i < 20; ++i) {
    const double lo = rng.next_double(0.0, 900.0);
    const double hi = lo + rng.next_double(0.0, 100.0);
    const auto out = harness.range_query(fx->random_issuer(rng), lo, hi);
    EXPECT_FALSE(out.stale);
    EXPECT_EQ(out.detours, 0u);
    EXPECT_EQ(out.missed, 0u);
    std::vector<std::uint64_t> expected;
    for (auto p : fx->net.alive_peers()) {
      for (const auto& obj : fx->net.peer(p).store) {
        const double v = fx->index.attributes(obj.payload)[0];
        if (v >= lo && v <= hi) {
          expected.push_back(obj.payload);
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(out.matches, expected);
  }
}

TEST(FissioneTimedChurn, StaleExactMatchRoutesDetourAndRecover) {
  auto fx = make_single_index(70, 9651);
  fx->net.set_latency_model(std::make_shared<net::TransitStub>(9652));
  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);

  std::vector<ChurnEvent> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back({1.0 + i, i % 2 == 0 ? ChurnEventKind::kCrash
                                         : ChurnEventKind::kJoin});
  }
  int probe = 0;
  for (const ChurnEvent& e : trace) {
    driver.schedule(e);
    sim.schedule_at(e.at, [&] {
      // Probe an exact-match lookup from inside the open window.
      const auto stale = checked_stale_peers(driver);
      ASSERT_FALSE(stale.empty());
      const auto target =
          fx->net.kautz_hash("stale-route" + std::to_string(probe++));
      const auto out = driver.route(stale.front(), target);
      EXPECT_TRUE(out.stale);
      if (out.failed) {
        EXPECT_EQ(out.route.owner, fissione::kNoPeer);
      } else {
        EXPECT_EQ(out.route.owner, fx->net.owner_of(target));
        // Each detour adds exactly one message/hop on top of the walk.
        EXPECT_EQ(out.stats.messages, out.route.hops + out.detours);
      }
    });
  }
  sim.run();
  EXPECT_EQ(driver.stats().queries, 8u);
  EXPECT_EQ(driver.stats().stale_queries, 8u);
  EXPECT_GT(driver.stats().detours, 0u);

  // Quiescent routes are clean and cost exactly the structural walk.
  EXPECT_TRUE(checked_stale_peers(driver).empty());
  Rng rng(9653);
  for (int i = 0; i < 30; ++i) {
    const auto target = fx->net.kautz_hash("quiet" + std::to_string(i));
    const auto out = driver.route(fx->random_issuer(rng), target);
    EXPECT_FALSE(out.stale);
    EXPECT_EQ(out.detours, 0u);
    EXPECT_EQ(out.route.owner, fx->net.owner_of(target));
    EXPECT_EQ(out.stats.messages, out.route.stats().messages);
    EXPECT_EQ(out.stats.latency, out.route.stats().latency);
  }
}

// A peer that dies inside its open window stays stale in the windows but
// must not be listed; a joiner recycling its id starts from a cleared
// window. Probes run on a quarter-unit grid until quiescence, twice per
// instant (the first prunes, the second lists from the pruned record).
TEST(FissioneTimedChurn, StaleListingSkipsDeadPeersAndRecycledWindows) {
  auto fx = make_single_index(60, 9671);
  testsupport::publish_uniform_values(fx->index, 240, 9672);
  fx->net.set_latency_model(std::make_shared<net::TransitStub>(9673));
  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);

  fissione::PeerId victim = fissione::kNoPeer;
  sim.schedule_at(1.0, [&] {
    driver.execute(ChurnEventKind::kLeave);
    const auto stale = checked_stale_peers(driver);
    ASSERT_FALSE(stale.empty());
    // Crash one listed peer outside the driver: its window outlives it.
    victim = stale.back();
    fx->net.crash(victim);
    ASSERT_FALSE(fx->net.is_alive(victim));
    EXPECT_TRUE(driver.is_stale(victim));
    const auto after_crash = checked_stale_peers(driver);
    EXPECT_EQ(std::count(after_crash.begin(), after_crash.end(), victim), 0);
    EXPECT_EQ(after_crash.size() + 1, stale.size());
    // The next joiner recycles the dead peer's id while its old window is
    // still open; the listing follows the joiner's own repair window.
    driver.execute(ChurnEventKind::kJoin);
    ASSERT_TRUE(fx->net.is_alive(victim));
    checked_stale_peers(driver);
  });
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(1.0 + 0.25 * i, [&] {
      checked_stale_peers(driver);
      checked_stale_peers(driver);
    });
  }
  sim.run();
  EXPECT_NE(victim, fissione::kNoPeer);
  EXPECT_TRUE(checked_stale_peers(driver).empty());
}

// Chord never recycles ids; a node that dies inside its open window must
// still drop out of the listing.
TEST(ChordTimedChurn, StaleListingSkipsDeadNodes) {
  chord::ChordNetwork net(120, 9711);
  net.set_latency_model(std::make_shared<net::TransitStub>(9712));
  sim::Simulator sim;
  chord::ChurnDriver driver(net, sim);

  sim.schedule_at(1.0, [&] {
    driver.execute(ChurnEventKind::kJoin);
    const auto stale = checked_stale_nodes(driver);
    ASSERT_FALSE(stale.empty());
    const chord::NodeId victim = stale.back();
    net.crash(victim);
    ASSERT_FALSE(net.is_alive(victim));
    EXPECT_TRUE(driver.is_stale(victim));
    const auto after_crash = checked_stale_nodes(driver);
    EXPECT_EQ(std::count(after_crash.begin(), after_crash.end(), victim), 0);
    EXPECT_EQ(after_crash.size() + 1, stale.size());
  });
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(1.0 + 0.25 * i, [&] { checked_stale_nodes(driver); });
  }
  sim.run();
  EXPECT_TRUE(checked_stale_nodes(driver).empty());
}

TEST(ChordTimedChurn, StaleRoutesDetourAndRecover) {
  chord::ChordNetwork net(120, 9701);
  net.set_latency_model(std::make_shared<net::TransitStub>(9702));
  sim::Simulator sim;
  chord::ChurnDriver driver(net, sim);

  std::vector<ChurnEvent> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back({1.0 + i, i % 2 == 0 ? ChurnEventKind::kCrash
                                         : ChurnEventKind::kJoin});
  }
  Rng probe_rng(9703);
  for (const ChurnEvent& e : trace) {
    driver.schedule(e);
    sim.schedule_at(e.at, [&] {
      const auto stale = checked_stale_nodes(driver);
      ASSERT_FALSE(stale.empty());
      const auto out = driver.route(stale.front(), probe_rng.engine()());
      EXPECT_TRUE(out.stale);
      if (!out.failed) {
        EXPECT_TRUE(net.is_alive(out.route.owner));
      } else {
        EXPECT_EQ(out.route.owner, chord::kNoNode);
      }
    });
  }
  sim.run();

  EXPECT_EQ(driver.stats().queries, 8u);
  EXPECT_EQ(driver.stats().stale_queries, 8u);

  // Quiescent routes are clean.
  EXPECT_TRUE(checked_stale_nodes(driver).empty());
  Rng rng(9704);
  for (int i = 0; i < 30; ++i) {
    const auto from = net.ring()[rng.next_index(net.ring().size())];
    const auto out = driver.route(from, rng.engine()());
    EXPECT_FALSE(out.stale);
    EXPECT_EQ(out.detours, 0u);
    EXPECT_EQ(out.stats.latency, out.route.stats.latency);
  }
}

// --- determinism: same seed + same trace => identical stats ------------------

struct FissioneChurnRun {
  std::unique_ptr<testsupport::SingleIndexFixture> fx;
  sim::Simulator sim;
  std::unique_ptr<fissione::ChurnDriver> driver;
  std::unique_ptr<core::ChurnHarness> harness;
  sim::ChurnStats churn;
  double query_latency_total = 0.0;
  double query_delay_total = 0.0;
  std::uint64_t query_messages_total = 0;

  explicit FissioneChurnRun(std::uint64_t seed) {
    fx = make_single_index(80, seed);
    testsupport::publish_uniform_values(fx->index, 200, seed + 1);
    fx->net.set_latency_model(std::make_shared<net::RttMatrix>(seed + 2));
    driver = std::make_unique<fissione::ChurnDriver>(fx->net, sim);
    harness = std::make_unique<core::ChurnHarness>(fx->index, *driver);

    driver->schedule(mixed_schedule(1.0, 40.0, seed + 3));
    auto rng = std::make_shared<Rng>(seed + 4);
    for (int q = 0; q < 50; ++q) {
      sim.schedule_at(0.5 + 0.8 * q, [this, rng] {
        const double lo = rng->next_double(0.0, 900.0);
        const double hi = lo + rng->next_double(0.0, 100.0);
        const auto& alive = fx->net.alive_peers();
        const auto out = harness->range_query(
            alive[rng->next_index(alive.size())], lo, hi);
        query_latency_total += out.stats.latency;
        query_delay_total += out.stats.delay;
        query_messages_total += out.stats.messages;
      });
    }
    sim.run();
    churn = driver->stats();
  }
};

TEST(ChurnDeterminism, SameSeedAndTraceGiveIdenticalStats) {
  constexpr std::uint64_t kSeed = 9801;
  const FissioneChurnRun a(kSeed);
  const FissioneChurnRun b(kSeed);

  // The whole ChurnStats currency, bitwise.
  EXPECT_TRUE(a.churn == b.churn);
  EXPECT_GT(a.churn.events(), 0u);
  EXPECT_GT(a.churn.repair_latency_max, 0.0);
  EXPECT_EQ(a.query_latency_total, b.query_latency_total);
  EXPECT_EQ(a.query_delay_total, b.query_delay_total);
  EXPECT_EQ(a.query_messages_total, b.query_messages_total);
  EXPECT_EQ(a.sim.events_processed(), b.sim.events_processed());

  // A different seed moves the measurements (sanity that the comparison
  // is not vacuous).
  const FissioneChurnRun c(kSeed + 1);
  EXPECT_FALSE(a.churn == c.churn);
}

TEST(ChurnDeterminism, ChordStatsAgreeAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    chord::ChordNetwork net(100, seed);
    net.set_latency_model(std::make_shared<net::RttMatrix>(seed + 1));
    sim::Simulator sim;
    chord::ChurnDriver driver(net, sim);
    driver.schedule(mixed_schedule(0.8, 40.0, seed + 2));
    auto rng = std::make_shared<Rng>(seed + 3);
    auto latency = std::make_shared<double>(0.0);
    for (int q = 0; q < 40; ++q) {
      sim.schedule_at(0.25 + 0.9 * q, [&net, &driver, rng, latency] {
        const auto from =
            net.ring()[rng->next_index(net.ring().size())];
        *latency += driver.route(from, rng->engine()()).stats.latency;
      });
    }
    sim.run();
    return std::make_pair(driver.stats(), *latency);
  };
  const auto a = run(9901);
  const auto b = run(9901);
  EXPECT_TRUE(a.first == b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first.events(), 0u);
}

// --- span-tree well-formedness under churn ----------------------------------

TEST(TimedChurnTracing, SpanTreesStayWellFormedAcrossDetourAndMigration) {
  auto fx = make_single_index(80, 9951);
  testsupport::publish_uniform_values(fx->index, 400, 9952);

  // Trace everything: the structural invariants must hold on every trace,
  // not just a lucky sample.
  obs::TraceConfig tc;
  tc.sample_period = 1;
  auto recorder = std::make_shared<obs::TraceRecorder>(tc);
  fx->net.transport().attach_trace(recorder);

  // Rebalancing on, so traced queries race in-flight migrations and
  // delegation cutovers too.  The load map is the rebalancer's signal
  // source; without it no sweep ever finds a hot peer.
  fissione::ServiceLoadMap load;
  fx->net.set_service_load(&load);
  rebalance::RebalanceConfig rcfg;
  rcfg.trigger_load = 2.5;
  rcfg.target_load = 1.25;
  rcfg.sweep_interval = 8;
  rcfg.cooldown = 32;
  rcfg.max_inflight = 4;
  const rebalance::Rebalancer& rb = fx->index.enable_rebalancing(rcfg);

  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);
  core::ChurnHarness harness(fx->index, driver);

  // Crash-heavy schedule, probed inside each stale window: the traced
  // queries take crash detours while the repair wave records its own
  // "repair/*" traces around them.
  sim::ZipfValues zipf(testsupport::kPaperDomain, 80, 1.0, Rng(9953));
  for (int i = 0; i < 8; ++i) {
    const ChurnEvent e{1.0 + i, i % 2 == 0 ? ChurnEventKind::kCrash
                                           : ChurnEventKind::kLeave};
    driver.schedule(e);
    sim.schedule_at(e.at, [&] {
      const auto stale = checked_stale_peers(driver);
      ASSERT_FALSE(stale.empty());
      const double c = zipf.next();
      const double lo = std::max(0.0, c - 12.5);
      harness.range_query(stale.front(), lo, std::min(1000.0, lo + 25.0));
    });
  }
  sim.run();

  // Skewed queries at quiescence trip migrations; querying continues while
  // transfers are in flight, so traced queries cross mid-migration state.
  Rng rng(9954);
  for (int q = 0; q < 300; ++q) {
    const double c = zipf.next();
    const double w = (q % 4 == 0) ? 25.0 : 2.5;
    harness.range_query(fx->random_issuer(rng), std::max(0.0, c - w),
                        std::min(1000.0, c + w));
  }
  fx->net.transport().detach_trace();
  EXPECT_GT(rb.stats().migrations_started, 0u);

  // Structural invariants over everything recorded: no orphan spans, no
  // cross-trace parents, monotone instants, children starting no earlier
  // than their roots — and conservation: every begun span was delivered.
  EXPECT_EQ(recorder->validate(), "");
  EXPECT_EQ(recorder->spans_recorded(), recorder->spans_delivered());
  EXPECT_EQ(recorder->roots_seen(), recorder->roots_sampled());
  EXPECT_EQ(recorder->spans_dropped(), 0u);

  // Both root families are present, and a traced query observed a
  // migration launch.
  bool repair_root = false;
  bool query_root = false;
  bool migration_flagged = false;
  for (const obs::Span& s : recorder->spans()) {
    if (s.parent == 0 && s.name != nullptr) {
      const std::string_view name(s.name);
      repair_root = repair_root || name.substr(0, 7) == "repair/";
      query_root = query_root || name == "pira" || name == "walk";
      migration_flagged =
          migration_flagged || (s.flags & obs::kFlagMigration) != 0;
    }
  }
  EXPECT_TRUE(repair_root);
  EXPECT_TRUE(query_root);
  EXPECT_TRUE(migration_flagged);
}

}  // namespace
}  // namespace armada
