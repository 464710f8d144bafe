// Long-running randomized integration test: interleaves membership churn,
// publishes, and every query type Armada supports, verifying each answer
// against ground truth and every structural invariant along the way.
//
// Three modes, all honoring ARMADA_FUZZ_SEED:
//  * instant churn — membership commutes immediately (the seed behaviour);
//  * timed churn — a seeded ChurnProcess schedule runs through the
//    Simulator with transport-priced repair, and queries race the repair
//    protocol inside stale-route windows;
//  * rebalance vs churn — a Zipf-skewed query stream drives the online
//    key-space rebalancer while membership churns underneath it, including
//    a forced donor crash in the middle of a migration transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "armada/armada.h"
#include "armada/churn_harness.h"
#include "fissione/churn_driver.h"
#include "fissione/network.h"
#include "fissione/types.h"
#include "kautz/kautz_region.h"
#include "net/latency_model.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/workload.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/rng.h"

namespace armada::core {
namespace {

using fissione::FissioneNetwork;

class IntegrationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrationFuzz, EverythingStaysCorrectUnderInterleavedChurn) {
  const std::uint64_t seed = GetParam();
  auto fx = testsupport::make_single_index(120, seed);
  auto& net = fx->net;
  auto& index = fx->index;
  Rng rng(seed * 104729 + 13);

  std::vector<double> values;  // handle -> value (all ever published)
  auto surviving_values = [&]() {
    // Crashes can drop objects: ground truth is what peers still store.
    std::vector<std::uint64_t> alive_handles;
    for (auto p : net.alive_peers()) {
      for (const auto& obj : net.peer(p).store) {
        alive_handles.push_back(obj.payload);
      }
    }
    std::sort(alive_handles.begin(), alive_handles.end());
    return alive_handles;
  };

  for (int step = 0; step < 300; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.25) {
      values.push_back(rng.next_double(0.0, 1000.0));
      index.publish(values.back());
    } else if (dice < 0.35) {
      net.join();
    } else if (dice < 0.42 && net.num_peers() > 40) {
      const auto& alive = net.alive_peers();
      net.leave(alive[rng.next_index(alive.size())]);
    } else if (dice < 0.45 && net.num_peers() > 40) {
      const auto& alive = net.alive_peers();
      net.crash(alive[rng.next_index(alive.size())]);
    } else if (!values.empty()) {
      const auto alive_handles = surviving_values();
      const double lo = rng.next_double(0.0, 900.0);
      const double hi = lo + rng.next_double(0.0, 100.0);
      const auto issuer = net.random_peer();
      const double bound =
          static_cast<double>(net.peer(issuer).peer_id.length());

      if (dice < 0.65) {  // range query
        auto got = index.range_query(issuer, lo, hi).matches;
        std::sort(got.begin(), got.end());
        std::vector<std::uint64_t> expected;
        for (std::uint64_t h : alive_handles) {
          if (values[h] >= lo && values[h] <= hi) {
            expected.push_back(h);
          }
        }
        EXPECT_EQ(got, expected);
      } else if (dice < 0.75) {  // top-k
        const std::size_t k = 1 + rng.next_index(8);
        const auto r = index.top_k(issuer, lo, hi, k);
        std::vector<std::pair<double, std::uint64_t>> in_range;
        for (std::uint64_t h : alive_handles) {
          if (values[h] >= lo && values[h] <= hi) {
            in_range.emplace_back(values[h], h);
          }
        }
        std::sort(in_range.begin(), in_range.end(), [](auto a, auto b) {
          return a.first != b.first ? a.first > b.first : a.second < b.second;
        });
        in_range.resize(std::min(in_range.size(), k));
        ASSERT_EQ(r.handles.size(), in_range.size());
        for (std::size_t i = 0; i < in_range.size(); ++i) {
          EXPECT_EQ(r.handles[i], in_range[i].second);
        }
      } else if (dice < 0.85) {  // aggregate
        const auto agg = index.range_aggregate(issuer, lo, hi);
        std::uint64_t count = 0;
        for (std::uint64_t h : alive_handles) {
          if (values[h] >= lo && values[h] <= hi) {
            ++count;
          }
        }
        EXPECT_EQ(agg.count, count);
        EXPECT_LE(agg.stats.delay, bound);
      } else {  // k-NN
        const std::size_t k = 1 + rng.next_index(5);
        const double q = rng.next_double(0.0, 1000.0);
        const auto r = index.nearest(issuer, q, k);
        std::vector<std::pair<double, std::uint64_t>> by_dist;
        for (std::uint64_t h : alive_handles) {
          by_dist.emplace_back(std::abs(values[h] - q), h);
        }
        std::sort(by_dist.begin(), by_dist.end());
        by_dist.resize(std::min(by_dist.size(), k));
        ASSERT_EQ(r.handles.size(), by_dist.size());
        for (std::size_t i = 0; i < by_dist.size(); ++i) {
          EXPECT_EQ(r.handles[i], by_dist[i].second) << "q=" << q;
        }
      }
    }

    if (step % 50 == 49) {
      net.check_invariants();
      EXPECT_LE(net.max_neighbor_length_gap(), 1u);
    }
  }
  net.check_invariants();
}

TEST_P(IntegrationFuzz, TimedChurnAnswersStaySubsetOfLiveTruth) {
  const std::uint64_t seed = GetParam();
  auto fx = testsupport::make_single_index(100, seed * 92821 + 31);
  auto& net = fx->net;
  auto& index = fx->index;
  net.set_latency_model(std::make_shared<net::TransitStub>(seed + 5));

  sim::Simulator sim;
  fissione::ChurnDriver driver(net, sim);
  core::ChurnHarness harness(index, driver);

  auto rng = std::make_shared<Rng>(seed * 48271 + 7);
  for (int i = 0; i < 220; ++i) {
    index.publish(rng->next_double(0.0, 1000.0));
  }

  // Membership change racing queries for 60 units of simulated time.
  sim::ChurnProcess::Config churn_cfg;
  churn_cfg.join_rate = 0.5;
  churn_cfg.leave_rate = 0.35;
  churn_cfg.crash_rate = 0.15;
  churn_cfg.horizon = 60.0;
  driver.schedule(sim::ChurnProcess(churn_cfg, seed ^ 0xc0ffee).events());

  int exact_answers = 0;
  for (int q = 0; q < 90; ++q) {
    sim.schedule_at(0.1 + 0.66 * q, [&net, &index, &harness, rng,
                                     &exact_answers] {
      // Occasionally publish mid-churn, so handoffs race fresh objects too.
      if (rng->next_bool(0.15)) {
        index.publish(rng->next_double(0.0, 1000.0));
      }
      const double lo = rng->next_double(0.0, 900.0);
      const double hi = lo + rng->next_double(0.0, 100.0);
      const auto& alive = net.alive_peers();
      const auto issuer = alive[rng->next_index(alive.size())];
      const auto out = harness.range_query(issuer, lo, hi);

      // Live ground truth at this instant: what the surviving peers store
      // (crashes already dropped their objects; handoffs already landed in
      // the destination store even while the transfer is still in flight).
      std::vector<std::uint64_t> expected;
      for (auto p : alive) {
        for (const auto& obj : net.peer(p).store) {
          const double v = index.attributes(obj.payload)[0];
          if (v >= lo && v <= hi) {
            expected.push_back(obj.payload);
          }
        }
      }
      std::sort(expected.begin(), expected.end());

      // The answer is always a subset of the live truth — never a dropped
      // or stale object — and misses only what is on the wire.
      EXPECT_TRUE(std::includes(expected.begin(), expected.end(),
                                out.matches.begin(), out.matches.end()))
          << "answer contains objects outside the live ground truth";
      EXPECT_EQ(out.matches.size() + out.missed,
                out.failed ? out.missed : expected.size());
      if (!out.stale && !out.failed && out.missed == 0) {
        EXPECT_EQ(out.matches, expected);
        ++exact_answers;
      }
    });
  }
  sim.run();

  net.check_invariants();
  EXPECT_LE(net.max_neighbor_length_gap(), 1u);
  const sim::ChurnStats& stats = driver.stats();
  EXPECT_EQ(stats.queries, 90u);
  EXPECT_GT(stats.events(), 0u);
  EXPECT_GT(stats.repair_latency_max, 0.0);
  // The schedule is dense enough that some queries race repair and some
  // land in quiet gaps; both outcomes must occur.
  EXPECT_GT(stats.stale_queries, 0u);
  EXPECT_GT(exact_answers, 0);
}

TEST_P(IntegrationFuzz, RebalancingUnderChurnConservesAndStaysExact) {
  const std::uint64_t seed = GetParam();
  auto fx = testsupport::make_single_index(110, seed * 69427 + 17);
  auto& net = fx->net;
  auto& index = fx->index;
  net.set_latency_model(std::make_shared<net::TransitStub>(seed + 9));

  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 3.0;
  cfg.target_load = 1.5;
  cfg.sweep_interval = 8;
  cfg.cooldown = 24;
  cfg.max_inflight = 3;
  rebalance::Rebalancer& rb = index.enable_rebalancing(cfg);

  Rng rng(seed * 48973 + 11);
  std::size_t published = 0;
  std::size_t dropped = 0;
  for (int i = 0; i < 240; ++i) {
    index.publish(rng.next_double(0.0, 1000.0));
    ++published;
  }

  // Drop-aware ground truth: what the surviving peers still own — native
  // stores plus delegated slices — restricted to [lo, hi]. Migrations move
  // ownership between peers but never change this set.
  const auto owned_matches = [&](double lo, double hi) {
    std::vector<std::uint64_t> out;
    for (auto p : net.alive_peers()) {
      net.for_each_owned(p, [&](const fissione::StoredObject& obj) {
        const double v = index.attributes(obj.payload)[0];
        if (v >= lo && v <= hi) {
          out.push_back(obj.payload);
        }
      });
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  sim::Simulator sim;
  sim::ZipfValues zipf(testsupport::kPaperDomain, 110, 1.0, Rng(seed + 3));

  // A Zipf-skewed query stream hot enough to trip the load trigger, with
  // mixed widths so both the full-redirect and the split-serve paths run
  // while membership churns underneath them.
  for (int q = 0; q < 120; ++q) {
    sim.schedule_at(0.1 + 0.45 * q, [&, q] {
      if (rng.next_bool(0.1)) {
        index.publish(rng.next_double(0.0, 1000.0));
        ++published;
      }
      const double c = zipf.next();
      const double w = (q % 3 == 0) ? 20.0 : 4.0;
      const double lo = std::max(0.0, c - w);
      const double hi = std::min(1000.0, c + w);
      const auto issuer = fx->random_issuer(rng);
      const double bound =
          static_cast<double>(net.peer(issuer).peer_id.length());

      const auto res = index.range_query(issuer, lo, hi);
      auto got = res.matches;
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, owned_matches(lo, hi)) << "query " << q;
      EXPECT_LE(res.stats.delay, bound);
      ASSERT_EQ(net.total_objects(), published - dropped) << "query " << q;
    });
  }

  // Membership churn racing the queries; every change runs the rebalancer's
  // membership hook, exactly as the churn drivers do.
  for (int e = 0; e < 28; ++e) {
    sim.schedule_at(0.37 + 1.9 * e, [&, e] {
      const double dice = rng.next_double();
      if (dice < 0.45) {
        net.join();
      } else if (dice < 0.8 && net.num_peers() > 60) {
        const auto& alive = net.alive_peers();
        net.leave(alive[rng.next_index(alive.size())]);
      } else if (net.num_peers() > 60) {
        const auto& alive = net.alive_peers();
        dropped += net.crash(alive[rng.next_index(alive.size())]);
      }
      rb.on_membership(sim);
      ASSERT_EQ(net.total_objects(), published - dropped) << "event " << e;
      if (e % 7 == 6) {
        net.check_invariants();
      }
    });
  }

  // Force a donor crash mid-transfer. Synchronous queries complete their
  // migrations inside their own event horizon, so put one transfer on the
  // *outer* wire — synthesizing a hot donor if no flight is active — then
  // kill its donor before the delivery event fires.
  sim.schedule_at(30.05, [&] {
    if (rb.inflight() == 0) {
      fissione::PeerId hot = fissione::kNoPeer;
      std::size_t most = 0;
      for (auto p : net.alive_peers()) {
        if (hot == fissione::kNoPeer || net.peer(p).store.size() > most) {
          hot = p;
          most = net.peer(p).store.size();
        }
      }
      load.add(hot, 12);
      kautz::KautzString hot_oid = net.peer(hot).peer_id;
      while (hot_oid.length() < net.config().object_id_length) {
        for (std::uint8_t s = 0; s <= hot_oid.base(); ++s) {
          if (hot_oid.can_append(s)) {
            hot_oid.push_back(s);
            break;
          }
        }
      }
      const kautz::KautzRegion hot_region(hot_oid, hot_oid);
      for (int i = 0; i < 40 && rb.inflight() == 0; ++i) {
        rb.on_query(sim, {hot_region});
      }
    }
    ASSERT_GT(rb.inflight(), 0u);
    // One sweep may launch several flights; crashing this donor must cancel
    // exactly its flights and leave the others to land normally.
    const auto flights = rb.flight_endpoints();
    dropped += net.crash(flights.front().first);
    rb.on_membership(sim);
    EXPECT_LT(rb.inflight(), flights.size());
    ASSERT_EQ(net.total_objects(), published - dropped);
  });

  sim.run();

  net.check_invariants();
  EXPECT_LE(net.max_neighbor_length_gap(), 1u);
  EXPECT_EQ(net.total_objects(), published - dropped);
  EXPECT_GT(rb.stats().migrations_started, 0u);
  EXPECT_EQ(rb.stats().migrations_started,
            rb.stats().migrations_completed + rb.stats().migrations_cancelled);
  EXPECT_GE(rb.stats().migrations_cancelled, 1u);
  EXPECT_EQ(rb.inflight(), 0u);
}

// Default seeds are fixed so CI is deterministic. To reproduce a failure or
// explore new seeds, override with the ARMADA_FUZZ_SEED env var:
//
//   ARMADA_FUZZ_SEED=12345 ./integration_fuzz_test
//   ARMADA_FUZZ_SEED=12345 ctest -L fuzz --output-on-failure
//
// The failing seed appears in the test name (EverythingStaysCorrect.../<seed>)
// and in this suite's output, so re-running with that value replays the
// exact interleaving.
std::vector<std::uint64_t> fuzz_seeds() {
  if (const char* env = std::getenv("ARMADA_FUZZ_SEED")) {
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
      // Fail loudly: silently running seed 0 would make a typo'd repro
      // attempt look like "not reproducible".
      std::fprintf(stderr,
                   "invalid ARMADA_FUZZ_SEED '%s' (expected an unsigned "
                   "integer)\n",
                   env);
      std::exit(2);
    }
    return {seed};
  }
  return {1, 2, 3, 4, 5, 6};
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationFuzz,
                         ::testing::ValuesIn(fuzz_seeds()),
                         [](const auto& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace armada::core
