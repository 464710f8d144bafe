// Online key-space rebalancing (src/rebalance/) and its cutover surface,
// the fissione delegation registry.
//
// The migration invariants under test:
//  * object conservation — total_objects() is constant across detach,
//    delegate, cutover, revoke, and host departure, and drops only by a
//    crash's reported loss;
//  * exactness — every query answered during an active migration equals
//    the ground truth (migrating objects are served by the donor until the
//    transfer lands, by the host afterwards; never dropped, never twice);
//  * hysteresis — migrations stop once the hot ranges moved (no ping-pong);
//  * determinism — identical seeds produce identical answers, stats, and
//    registries;
//  * bitwise no-op when disabled — a default RebalanceConfig changes
//    nothing about the query path;
//  * lazy load decay — load_of equals an eager sweep of every peer, bit
//    for bit, after every sweep.
//
// ARMADA_SOAK=1 stretches the trajectory tests 10x (wired into the CI
// Release leg); ARMADA_FUZZ_SEED=<n> replays the determinism sweep on one
// seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "armada/armada.h"
#include "fissione/network.h"
#include "fissione/types.h"
#include "net/queueing.h"
#include "net/transport.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "sim/event_queue.h"
#include "sim/workload.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/rng.h"

namespace armada::core {
namespace {

using fissione::FissioneNetwork;
using fissione::PeerId;
using fissione::StoredObject;
using kautz::KautzString;

/// 10x trajectories under ARMADA_SOAK=1 (the CI Release-leg soak), 1x
/// otherwise.
int soak_factor() {
  const char* env = std::getenv("ARMADA_SOAK");
  return (env != nullptr && std::string(env) != "0") ? 10 : 1;
}

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
  return {1, 2, 3};
}

/// Alive peer whose native store is largest — the natural migration donor.
PeerId fattest_peer(const FissioneNetwork& net) {
  PeerId best = fissione::kNoPeer;
  std::size_t most = 0;
  for (PeerId p : net.alive_peers()) {
    const std::size_t n = net.peer(p).store.size();
    if (best == fissione::kNoPeer || n > most) {
      best = p;
      most = n;
    }
  }
  return best;
}

/// Any alive peer whose zone is disjoint from `range` (a valid host).
PeerId disjoint_host(const FissioneNetwork& net, const KautzString& range,
                     PeerId exclude) {
  for (PeerId p : net.alive_peers()) {
    if (p == exclude) {
      continue;
    }
    const KautzString id = net.peer(p).peer_id;
    if (!id.is_prefix_of(range) && !range.is_prefix_of(id)) {
      return p;
    }
  }
  return fissione::kNoPeer;
}

/// Sorted matches of one range query.
std::vector<std::uint64_t> query_sorted(const ArmadaIndex& index,
                                        PeerId issuer, double lo, double hi) {
  auto m = index.range_query(issuer, lo, hi).matches;
  std::sort(m.begin(), m.end());
  return m;
}

/// Drop-aware ground truth: what the surviving peers still own (native
/// stores plus delegated slices), restricted to [lo, hi].
std::vector<std::uint64_t> owned_matches(const FissioneNetwork& net,
                                         const ArmadaIndex& index, double lo,
                                         double hi) {
  std::vector<std::uint64_t> out;
  for (PeerId p : net.alive_peers()) {
    net.for_each_owned(p, [&](const StoredObject& obj) {
      const double v = index.attributes(obj.payload)[0];
      if (v >= lo && v <= hi) {
        out.push_back(obj.payload);
      }
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- delegation registry (the cutover surface) -----------------------------

TEST(DelegationRegistry, RoundTripConservesObjectsAndStaysExact) {
  auto fx = testsupport::make_single_index(80, 21);
  auto& net = fx->net;
  auto& index = fx->index;
  const auto values = testsupport::publish_uniform_values(index, 400, 51);
  ASSERT_EQ(net.total_objects(), values.size());

  const PeerId donor = fattest_peer(net);
  const KautzString range = net.peer(donor).peer_id;
  const std::size_t donor_store = net.peer(donor).store.size();
  ASSERT_GT(donor_store, 0u);

  auto detached = net.detach_range(range);
  EXPECT_EQ(detached.size(), donor_store);
  EXPECT_EQ(net.peer(donor).store.size(), 0u);
  // Detached objects are gone from every native store but not yet
  // registered: total_objects() dips by exactly the detached count.
  EXPECT_EQ(net.total_objects(), values.size() - detached.size());

  const PeerId host = disjoint_host(net, range, donor);
  ASSERT_NE(host, fissione::kNoPeer);
  const StoredObject sample = detached.front();
  net.delegate_range(range, host, std::move(detached));
  net.check_invariants();
  EXPECT_EQ(net.total_objects(), values.size());
  ASSERT_NE(net.find_delegation(range), nullptr);
  EXPECT_EQ(net.find_delegation(range)->host, host);
  EXPECT_EQ(net.delegation_covering(sample.object_id),
            net.find_delegation(range));

  // An exact-match lookup routes to the structural owner, whose logical
  // store holds the hosted copy.
  std::vector<std::uint64_t> payloads;
  net.for_each_owned(net.route(host, sample.object_id).owner,
                     [&](const StoredObject& obj) {
                       if (obj.object_id == sample.object_id) {
                         payloads.push_back(obj.payload);
                       }
                     });
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), sample.payload),
            payloads.end());

  // Range queries issued while the range is hosted stay ground-truth exact.
  Rng rng(77);
  for (int q = 0; q < 25; ++q) {
    const auto sub = testsupport::random_subrange(
        rng, testsupport::kPaperDomain, 200.0);
    const PeerId issuer = fx->random_issuer(rng);
    EXPECT_EQ(query_sorted(index, issuer, sub.lo, sub.hi),
              index.scan_matches({{sub.lo, sub.hi}}));
  }

  // Revocation hands the contents back; re-publishing restores the native
  // placement bit-for-bit.
  auto returned = net.revoke_delegation(range);
  EXPECT_FALSE(net.has_delegations());
  for (const StoredObject& obj : returned) {
    net.publish(obj.object_id, obj.payload);
  }
  net.check_invariants();
  EXPECT_EQ(net.total_objects(), values.size());
  EXPECT_EQ(net.peer(donor).store.size(), donor_store);
  Rng rng2(78);
  for (int q = 0; q < 10; ++q) {
    const auto sub = testsupport::random_subrange(
        rng2, testsupport::kPaperDomain, 200.0);
    const PeerId issuer = fx->random_issuer(rng2);
    EXPECT_EQ(query_sorted(index, issuer, sub.lo, sub.hi),
              index.scan_matches({{sub.lo, sub.hi}}));
  }
}

TEST(DelegationRegistry, PublishRoutesIntoHostedRange) {
  FissioneNetwork net = FissioneNetwork::build(60, 5);
  Rng rng(9);
  for (std::uint64_t i = 0; i < 200; ++i) {
    net.publish(net.random_object_id(), i);
  }

  const PeerId donor = fattest_peer(net);
  const KautzString range = net.peer(donor).peer_id;
  auto detached = net.detach_range(range);
  ASSERT_FALSE(detached.empty());
  const std::size_t hosted_before = detached.size();
  const PeerId host = disjoint_host(net, range, donor);
  ASSERT_NE(host, fissione::kNoPeer);
  net.delegate_range(range, host, std::move(detached));

  // A fresh publish whose ObjectID extends the hosted range must land in
  // the registry, not in the (structural) owner's native store.
  KautzString oid = range;
  while (oid.length() < FissioneNetwork::kObjectIdLength) {
    for (std::uint8_t s = 0; s <= kautz::kBase; ++s) {
      if (oid.can_append(s)) {
        oid.push_back(s);
        break;
      }
    }
  }
  net.publish(oid, 9999);
  net.check_invariants();
  ASSERT_NE(net.find_delegation(range), nullptr);
  EXPECT_EQ(net.find_delegation(range)->objects.size(), hosted_before + 1);
  EXPECT_EQ(net.peer(donor).store.size(), 0u);
  EXPECT_EQ(net.total_objects(), 201u);

  std::vector<std::uint64_t> payloads;
  net.for_each_owned(net.route(net.alive_peers().front(), oid).owner,
                     [&](const StoredObject& obj) {
                       if (obj.object_id == oid) {
                         payloads.push_back(obj.payload);
                       }
                     });
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), 9999u),
            payloads.end());
}

TEST(DelegationRegistry, HostDepartureReturnsObjectsHostCrashDropsThem) {
  // Graceful host departure: the hosted objects flow back to their
  // structural owners, nothing is lost.
  {
    auto fx = testsupport::make_single_index(80, 22);
    auto& net = fx->net;
    const auto values = testsupport::publish_uniform_values(fx->index, 400, 52);
    const PeerId donor = fattest_peer(net);
    const KautzString range = net.peer(donor).peer_id;
    auto detached = net.detach_range(range);
    ASSERT_FALSE(detached.empty());
    const PeerId host = disjoint_host(net, range, donor);
    ASSERT_NE(host, fissione::kNoPeer);
    net.delegate_range(range, host, std::move(detached));

    FissioneNetwork::MembershipReport report;
    net.leave(host, &report);
    net.check_invariants();
    EXPECT_EQ(net.find_delegation(range), nullptr);
    EXPECT_EQ(net.total_objects(), values.size());

    Rng rng(31);
    for (int q = 0; q < 10; ++q) {
      const auto sub = testsupport::random_subrange(
          rng, testsupport::kPaperDomain, 200.0);
      const PeerId issuer = fx->random_issuer(rng);
      EXPECT_EQ(query_sorted(fx->index, issuer, sub.lo, sub.hi),
                fx->index.scan_matches({{sub.lo, sub.hi}}));
    }
  }

  // Host crash: hosted objects are lost with the host, and the loss is
  // reported exactly (conservation of the accounting, not the objects).
  {
    auto fx = testsupport::make_single_index(80, 23);
    auto& net = fx->net;
    const auto values = testsupport::publish_uniform_values(fx->index, 400, 53);
    const PeerId donor = fattest_peer(net);
    const KautzString range = net.peer(donor).peer_id;
    auto detached = net.detach_range(range);
    ASSERT_FALSE(detached.empty());
    const std::size_t hosted = detached.size();
    const PeerId host = disjoint_host(net, range, donor);
    ASSERT_NE(host, fissione::kNoPeer);
    net.delegate_range(range, host, std::move(detached));

    const std::size_t dropped = net.crash(host);
    net.check_invariants();
    EXPECT_GE(dropped, hosted);
    EXPECT_EQ(net.find_delegation(range), nullptr);
    EXPECT_EQ(net.total_objects(), values.size() - dropped);

    Rng rng(32);
    for (int q = 0; q < 10; ++q) {
      const auto sub = testsupport::random_subrange(
          rng, testsupport::kPaperDomain, 200.0);
      const PeerId issuer = fx->random_issuer(rng);
      EXPECT_EQ(query_sorted(fx->index, issuer, sub.lo, sub.hi),
                owned_matches(net, fx->index, sub.lo, sub.hi));
    }
  }
}

// --- the rebalancer under skew ---------------------------------------------

rebalance::RebalanceConfig skew_config(double trigger = 4.0,
                                       double target = 2.0) {
  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = trigger;
  cfg.target_load = target;
  cfg.sweep_interval = 8;
  cfg.cooldown = 32;
  cfg.max_inflight = 4;
  return cfg;
}

TEST(Rebalancer, SkewedWorkloadMigratesAndEveryAnswerStaysExact) {
  auto fx = testsupport::make_single_index(150, 33);
  auto& net = fx->net;
  auto& index = fx->index;
  const auto values = testsupport::publish_uniform_values(index, 600, 71);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  const rebalance::Rebalancer& rb = index.enable_rebalancing(skew_config());

  sim::ZipfValues zipf(testsupport::kPaperDomain, 150, 1.0, Rng(91));
  Rng rng(17);
  const int queries = 400 * soak_factor();
  for (int q = 0; q < queries; ++q) {
    const double c = zipf.next();
    // Mixed widths: narrow queries resolve into full redirects, wide ones
    // into native + host splits — both serve paths must stay exact.
    const double w = (q % 4 == 0) ? 25.0 : 2.5;
    const double lo = std::max(0.0, c - w);
    const double hi = std::min(1000.0, c + w);
    const PeerId issuer = fx->random_issuer(rng);
    const double bound =
        static_cast<double>(net.peer(issuer).peer_id.length());

    const auto res = index.range_query(issuer, lo, hi);
    auto got = res.matches;
    std::sort(got.begin(), got.end());
    // Exact at every point of the trajectory — including the queries that
    // race an in-flight transfer inside their own event horizon.
    ASSERT_EQ(got, index.scan_matches({{lo, hi}})) << "query " << q;
    EXPECT_LE(res.stats.delay, bound);
    // Object conservation at every event boundary: a migration moves
    // objects, it never duplicates or leaks them.
    ASSERT_EQ(net.total_objects(), values.size()) << "query " << q;
  }

  net.check_invariants();
  EXPECT_GT(rb.stats().migrations_started, 0u);
  EXPECT_GT(rb.stats().migrations_completed, 0u);
  EXPECT_GT(rb.stats().objects_migrated, 0u);
  EXPECT_TRUE(net.has_delegations());
  EXPECT_EQ(rb.inflight(), 0u);
  EXPECT_EQ(rb.stats().migrations_started,
            rb.stats().migrations_completed + rb.stats().migrations_cancelled);
  EXPECT_GT(rb.stats().bytes_on_wire, 0u);
}

TEST(Rebalancer, RebalancingReducesPeakServiceLoad) {
  const auto peak_load = [](bool rebalanced) {
    auto fx = testsupport::make_single_index(150, 33);
    testsupport::publish_uniform_values(fx->index, 600, 71);
    fissione::ServiceLoadMap load;
    fx->net.set_service_load(&load);
    if (rebalanced) {
      fx->index.enable_rebalancing(skew_config(2.5, 1.25));
    }
    sim::ZipfValues zipf(testsupport::kPaperDomain, 150, 1.0, Rng(91));
    Rng rng(17);
    for (int q = 0; q < 600; ++q) {
      const double c = zipf.next();
      fx->index.range_query(fx->random_issuer(rng), std::max(0.0, c - 2.5),
                            std::min(1000.0, c + 2.5));
    }
    std::uint64_t peak = 0;
    for (const auto& [p, count] : load) {
      peak = std::max(peak, count);
    }
    return peak;
  };

  const std::uint64_t without = peak_load(false);
  const std::uint64_t with = peak_load(true);
  EXPECT_LT(with, without);
}

TEST(Rebalancer, HysteresisConvergesWithoutPingPong) {
  auto fx = testsupport::make_single_index(150, 34);
  auto& net = fx->net;
  auto& index = fx->index;
  testsupport::publish_uniform_values(index, 600, 72);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  // An effectively infinite cooldown isolates the hysteresis band itself:
  // each range may move at most once, so any ping-pong would have to
  // recruit ever-new ranges — which the downhill acceptor rule forbids.
  rebalance::RebalanceConfig cfg = skew_config(2.5, 1.25);
  cfg.cooldown = 1u << 30;
  const rebalance::Rebalancer& rb = index.enable_rebalancing(cfg);

  sim::ZipfValues zipf(testsupport::kPaperDomain, 150, 1.0, Rng(92));
  Rng rng(18);
  const int half = 300 * soak_factor();
  const auto run_half = [&] {
    for (int q = 0; q < half; ++q) {
      const double c = zipf.next();
      index.range_query(fx->random_issuer(rng), std::max(0.0, c - 2.5),
                        std::min(1000.0, c + 2.5));
    }
  };

  run_half();
  const std::uint64_t first_half = rb.stats().migrations_started;
  run_half();
  const std::uint64_t second_half =
      rb.stats().migrations_started - first_half;

  // The workload's hot set is stationary, so the hot ranges move early and
  // then rest: the second half of the trajectory starts (at most) a small
  // residue of migrations, not another full round — no ping-pong storms.
  EXPECT_GT(first_half, 0u);
  EXPECT_LE(second_half, first_half / 2 + 2);
  EXPECT_LE(rb.stats().migrations_started, 30u);
  net.check_invariants();
}

TEST(Rebalancer, DisabledConfigIsBitwiseIdentical) {
  auto plain = testsupport::make_single_index(120, 44);
  auto guarded = testsupport::make_single_index(120, 44);
  testsupport::publish_uniform_values(plain->index, 300, 55);
  testsupport::publish_uniform_values(guarded->index, 300, 55);
  const rebalance::RebalanceConfig disabled;
  ASSERT_FALSE(disabled.enabled());
  guarded->index.enable_rebalancing(disabled);

  Rng rng_a(5);
  Rng rng_b(5);
  for (int q = 0; q < 60; ++q) {
    const auto sub = testsupport::random_subrange(
        rng_a, testsupport::kPaperDomain, 300.0);
    const auto sub_b = testsupport::random_subrange(
        rng_b, testsupport::kPaperDomain, 300.0);
    const PeerId issuer = plain->random_issuer(rng_a);
    const PeerId issuer_b = guarded->random_issuer(rng_b);
    ASSERT_EQ(issuer, issuer_b);

    const auto a = plain->index.range_query(issuer, sub.lo, sub.hi);
    const auto b = guarded->index.range_query(issuer_b, sub_b.lo, sub_b.hi);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.destinations, b.destinations);
  }
  EXPECT_FALSE(guarded->net.has_delegations());
  EXPECT_EQ(guarded->index.rebalancer()->stats().sweeps, 0u);
}

TEST(Rebalancer, ServiceLoadForgetsRecycledPeerIds) {
  auto fx = testsupport::make_single_index(60, 7);
  auto& net = fx->net;
  auto& index = fx->index;
  testsupport::publish_uniform_values(index, 300, 57);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  // Enabled (so queries feed the rebalancer) but with a trigger no peer
  // reaches: only the bookkeeping is under test.
  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 1e9;
  cfg.sweep_interval = 1;
  rebalance::Rebalancer& rb = index.enable_rebalancing(cfg);

  Rng rng(13);
  for (int q = 0; q < 40; ++q) {
    const auto sub = testsupport::random_subrange(
        rng, testsupport::kPaperDomain, 300.0);
    index.range_query(fx->random_issuer(rng), sub.lo, sub.hi);
  }

  PeerId hot = fissione::kNoPeer;
  std::uint64_t most = 0;
  for (const auto& [p, count] : load) {
    if (count > most) {
      hot = p;
      most = count;
    }
  }
  ASSERT_NE(hot, fissione::kNoPeer);
  ASSERT_GT(rb.load_of(hot), 0.0);

  // Crash the hot peer: the network must reset its ServiceLoadMap entry and
  // the membership hook must clear the rebalancer's EWMA, so a joiner that
  // recycles the id does not inherit a dead peer's service history (and
  // does not become a phantom migration donor).
  sim::Simulator sim;
  net.crash(hot);
  rb.on_membership(sim);
  EXPECT_EQ(load.count(hot), 0u);
  EXPECT_EQ(rb.load_of(hot), 0.0);

  const auto joined = net.join();
  if (joined.peer == hot) {
    EXPECT_EQ(load.count(hot), 0u);
    EXPECT_EQ(rb.load_of(hot), 0.0);
  }
  net.check_invariants();
}

TEST(Rebalancer, LoadTriggerFiresUnderCongestion) {
  auto fx = testsupport::make_single_index(100, 13);
  auto& net = fx->net;
  auto& index = fx->index;
  const auto values = testsupport::publish_uniform_values(index, 400, 59);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);

  // A slow service rate queues the burst at the hot range's peers; no
  // admission control, so answers stay complete while migrations race
  // queued queries.
  net::QueueingConfig qcfg;
  qcfg.service_rate = 1.0;
  qcfg.default_message_bytes = 64;
  net.transport().install_queueing(qcfg);

  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 3.0;
  cfg.target_load = 1.0;
  cfg.sweep_interval = 4;
  cfg.cooldown = 8;
  cfg.max_inflight = 2;
  const rebalance::Rebalancer& rb = index.enable_rebalancing(cfg);

  // One issuer fires an async burst into one hot range on one simulator.
  // Load is counted when a message arrives, so the queries are spaced out:
  // each sweep sees the arrivals of the queries before it.
  sim::Simulator sim;
  Rng rng(3);
  const PeerId issuer = fx->random_issuer(rng);
  int completed = 0;
  const auto expected = index.scan_matches({{100.0, 140.0}});
  for (int q = 0; q < 48; ++q) {
    sim.schedule_at(0.01 + 1.5 * q, [&sim, &index, issuer, &completed,
                                     &expected] {
      index.range_query_async(sim, issuer, 100.0, 140.0,
                              [&completed, &expected](RangeQueryResult out) {
                                ++completed;
                                std::sort(out.matches.begin(),
                                          out.matches.end());
                                EXPECT_EQ(out.matches, expected);
                              });
    });
  }
  sim.run();

  EXPECT_EQ(completed, 48);
  EXPECT_GT(rb.stats().migrations_started, 0u);
  EXPECT_EQ(rb.inflight(), 0u);
  net.check_invariants();
  EXPECT_EQ(net.total_objects(), values.size());
}

TEST(Rebalancer, CancelsCleanlyWhenDonorCrashesMidTransfer) {
  auto fx = testsupport::make_single_index(90, 27);
  auto& net = fx->net;
  const auto values = testsupport::publish_uniform_values(fx->index, 450, 61);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);

  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 1.0;
  cfg.target_load = 10.0;
  cfg.sweep_interval = 2;
  cfg.cooldown = 4;
  rebalance::Rebalancer rb(net, cfg);

  sim::Simulator sim;
  std::size_t dropped = 0;
  sim.schedule_at(0.0, [&] {
    // Synthesize a hot donor — service load on the peer plus matching heat
    // on its zone — and tick until a sweep launches the migration: the
    // transfer is now on the wire with a strictly later delivery instant.
    const PeerId hot = fattest_peer(net);
    load.add(hot, 8);
    KautzString hot_oid = net.peer(hot).peer_id;
    while (hot_oid.length() < FissioneNetwork::kObjectIdLength) {
      for (std::uint8_t s = 0; s <= kautz::kBase; ++s) {
        if (hot_oid.can_append(s)) {
          hot_oid.push_back(s);
          break;
        }
      }
    }
    const kautz::KautzRegion hot_region(hot_oid, hot_oid);
    for (int i = 0; i < 24 && rb.inflight() == 0; ++i) {
      rb.on_query(sim, {hot_region});
    }
    ASSERT_GT(rb.inflight(), 0u);
    const auto [donor, acceptor] = rb.flight_endpoints().front();
    EXPECT_EQ(donor, hot);

    // The donor dies before the transfer lands. The membership hook cancels
    // the flight; when the delivery event fires it must be a no-op.
    dropped += net.crash(donor);
    rb.on_membership(sim);
    EXPECT_EQ(rb.inflight(), 0u);
  });
  sim.run();

  EXPECT_EQ(rb.stats().migrations_started, 1u);
  EXPECT_EQ(rb.stats().migrations_cancelled, 1u);
  EXPECT_EQ(rb.stats().migrations_completed, 0u);
  EXPECT_FALSE(net.has_delegations());
  net.check_invariants();
  EXPECT_EQ(net.total_objects(), values.size() - dropped);
}

// With no membership hook wired, nothing cancels a flight at the churn
// event: the landing itself must notice that the acceptor died in flight,
// cancel, and leave the registry and the donor's objects untouched.
TEST(Rebalancer, CancelsAtLandingWhenAcceptorCrashesWithoutAHook) {
  auto fx = testsupport::make_single_index(90, 27);
  auto& net = fx->net;
  const auto values = testsupport::publish_uniform_values(fx->index, 450, 61);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);

  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 1.0;
  cfg.target_load = 10.0;
  cfg.sweep_interval = 2;
  cfg.cooldown = 4;
  rebalance::Rebalancer rb(net, cfg);

  sim::Simulator sim;
  std::size_t dropped = 0;
  PeerId donor = fissione::kNoPeer;
  std::size_t donor_objects = 0;
  sim.schedule_at(0.0, [&] {
    const PeerId hot = fattest_peer(net);
    load.add(hot, 8);
    KautzString hot_oid = net.peer_id(hot);
    while (hot_oid.length() < FissioneNetwork::kObjectIdLength) {
      for (std::uint8_t s = 0; s <= kautz::kBase; ++s) {
        if (hot_oid.can_append(s)) {
          hot_oid.push_back(s);
          break;
        }
      }
    }
    const kautz::KautzRegion hot_region(hot_oid, hot_oid);
    for (int i = 0; i < 24 && rb.inflight() == 0; ++i) {
      rb.on_query(sim, {hot_region});
    }
    ASSERT_EQ(rb.inflight(), 1u);
    PeerId acceptor = fissione::kNoPeer;
    std::tie(donor, acceptor) = rb.flight_endpoints().front();
    ASSERT_NE(acceptor, donor);
    dropped = net.crash(acceptor);
    ASSERT_TRUE(net.is_alive(donor));
    donor_objects = net.store_of(donor).size();
    EXPECT_EQ(rb.inflight(), 1u);  // nothing cancelled it yet
  });
  sim.run();

  EXPECT_EQ(rb.inflight(), 0u);
  EXPECT_EQ(rb.stats().migrations_started, 1u);
  EXPECT_EQ(rb.stats().migrations_cancelled, 1u);
  EXPECT_EQ(rb.stats().migrations_completed, 0u);
  EXPECT_EQ(rb.stats().objects_migrated, 0u);
  EXPECT_EQ(rb.stats().cutover_messages, 0u);
  EXPECT_FALSE(net.has_delegations());
  EXPECT_EQ(net.store_of(donor).size(), donor_objects);
  net.check_invariants();
  EXPECT_EQ(net.total_objects(), values.size() - dropped);
}

TEST(Rebalancer, DeterministicAcrossIdenticalRuns) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    const auto run = [seed] {
      auto fx = testsupport::make_single_index(120, seed);
      testsupport::publish_uniform_values(fx->index, 400, seed + 1);
      fissione::ServiceLoadMap load;
      fx->net.set_service_load(&load);
      const rebalance::Rebalancer& rb =
          fx->index.enable_rebalancing(skew_config());

      sim::ZipfValues zipf(testsupport::kPaperDomain, 120, 1.1,
                           Rng(seed + 2));
      Rng rng(seed + 3);
      std::vector<std::uint64_t> answer_trace;
      for (int q = 0; q < 200; ++q) {
        const double c = zipf.next();
        auto got = query_sorted(fx->index, fx->random_issuer(rng),
                                std::max(0.0, c - 12.0),
                                std::min(1000.0, c + 12.0));
        answer_trace.push_back(got.size());
        answer_trace.insert(answer_trace.end(), got.begin(), got.end());
      }

      std::vector<std::tuple<KautzString, PeerId, std::size_t>> registry;
      for (const auto& [range, d] : fx->net.delegations()) {
        registry.emplace_back(range, d.host, d.objects.size());
      }
      const auto& s = rb.stats();
      return std::make_tuple(answer_trace, registry, s.sweeps,
                             s.migrations_started, s.migrations_completed,
                             s.migrations_cancelled, s.objects_migrated,
                             s.rehosted, s.cutover_messages, s.bytes_on_wire);
    };
    EXPECT_EQ(run(), run()) << "seed " << seed;
  }
}

// Top-k, k-NN and range aggregates while migrated ranges are live. The two
// zone walks scan each visited owner's logical store, delegated slices
// included; the aggregate runs PIRA's search with the replica set and the
// rebalancer left out, so it must not move either subsystem's counters.
TEST(Rebalancer, ComplexQueriesUnderDelegationsMatchTheOwnedScan) {
  auto fx = testsupport::make_single_index(150, 33);
  auto& net = fx->net;
  auto& index = fx->index;
  testsupport::publish_uniform_values(index, 600, 71);
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  const rebalance::Rebalancer& rb = index.enable_rebalancing(skew_config());

  sim::ZipfValues zipf(testsupport::kPaperDomain, 150, 1.0, Rng(91));
  Rng rng(17);
  const auto hot_queries = [&](int n) {
    for (int q = 0; q < n; ++q) {
      const double c = zipf.next();
      index.range_query(fx->random_issuer(rng), std::max(0.0, c - 2.5),
                        std::min(1000.0, c + 2.5));
    }
  };
  for (int q = 0; q < 2000 && !net.has_delegations(); ++q) {
    hot_queries(1);
  }
  ASSERT_TRUE(net.has_delegations());
  // Replicas and caches would take the hot load the migrations need, so
  // the replica set joins only now.
  replica::ReplicationConfig rcfg;
  rcfg.max_replicas = 4;
  rcfg.hot_threshold = 4.0;
  rcfg.cool_threshold = 0.5;
  rcfg.cache_ttl = 8;
  const replica::ReplicaSet& rs = index.enable_replication(rcfg);
  hot_queries(100);
  ASSERT_TRUE(net.has_delegations());
  ASSERT_EQ(rb.inflight(), 0u);

  // Brute force: (value, handle) of every object the alive peers own.
  std::vector<std::pair<double, std::uint64_t>> owned;
  for (PeerId p : net.alive_peers()) {
    net.for_each_owned(p, [&](const StoredObject& obj) {
      owned.emplace_back(index.attributes(obj.payload)[0], obj.payload);
    });
  }
  std::vector<std::uint64_t> migrated;
  for (const auto& [range, d] : net.delegations()) {
    for (const StoredObject& obj : d.objects) {
      migrated.push_back(obj.payload);
    }
  }
  const auto is_migrated = [&migrated](std::uint64_t h) {
    return std::find(migrated.begin(), migrated.end(), h) != migrated.end();
  };
  // Handles of the k least (key, handle) pairs.
  const auto least = [](std::vector<std::pair<double, std::uint64_t>> v,
                        std::size_t k) {
    std::sort(v.begin(), v.end());
    v.resize(std::min(v.size(), k));
    std::vector<std::uint64_t> handles;
    for (const auto& [key, h] : v) {
      handles.push_back(h);
    }
    return handles;
  };

  std::size_t tops_with_migrated = 0;
  std::size_t nearest_with_migrated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Anchored at a migrated object: it tops the range and is its own
    // nearest neighbour, so both walks must reach its delegated slice.
    const double c = index.attributes(
        migrated[static_cast<std::size_t>(trial * 7) % migrated.size()])[0];
    const double lo = std::max(0.0, c - 20.0);
    const double hi = c;
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 12);
    const PeerId issuer = fx->random_issuer(rng);

    std::vector<std::pair<double, std::uint64_t>> by_rank;
    std::vector<std::pair<double, std::uint64_t>> by_distance;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    for (const auto& [v, h] : owned) {
      by_distance.emplace_back(std::abs(v - c), h);
      if (v < lo || v > hi) {
        continue;
      }
      by_rank.emplace_back(-v, h);
      min = count == 0 ? v : std::min(min, v);
      max = count == 0 ? v : std::max(max, v);
      sum += v;
      ++count;
    }

    const auto top = index.top_k(issuer, lo, hi, k).handles;
    EXPECT_EQ(top, least(by_rank, k)) << "trial " << trial;
    const auto near = index.nearest(issuer, c, k).handles;
    EXPECT_EQ(near, least(by_distance, k)) << "trial " << trial;
    tops_with_migrated += std::any_of(top.begin(), top.end(), is_migrated);
    nearest_with_migrated +=
        std::any_of(near.begin(), near.end(), is_migrated);

    const rebalance::RebalanceStats rb_before = rb.stats();
    const replica::ReplicaStats rs_before = rs.stats();
    const AggregateResult agg = index.range_aggregate(issuer, lo, hi);
    EXPECT_EQ(rb.stats(), rb_before) << "trial " << trial;
    EXPECT_EQ(rs.stats(), rs_before) << "trial " << trial;
    ASSERT_EQ(agg.count, count) << "trial " << trial;  // c itself counts
    EXPECT_EQ(agg.min, min);
    EXPECT_EQ(agg.max, max);
    EXPECT_NEAR(agg.sum, sum, 1e-9 * std::abs(sum));
  }
  // The walks really crossed migrated ranges.
  EXPECT_GT(tops_with_migrated, 0u);
  EXPECT_GT(nearest_with_migrated, 0u);
}

// --- lazy load decay -------------------------------------------------------

/// The sweep the lazy one replaced, as a reference: every sweep sizes the
/// columns to the largest alive PeerId and updates every peer's EWMA; the
/// membership hook zeroes every dead peer.
struct EagerLoads {
  std::vector<double> load;
  std::vector<std::uint64_t> prev;

  void sweep(const FissioneNetwork& net) {
    std::size_t hi = 0;
    for (PeerId p : net.alive_peers()) {
      hi = std::max(hi, static_cast<std::size_t>(p) + 1);
    }
    if (hi > load.size()) {
      load.resize(hi, 0.0);
      prev.resize(hi, 0);
    }
    const fissione::ServiceLoadMap* counts = net.service_load();
    for (std::size_t p = 0; p < load.size(); ++p) {
      const std::uint64_t cur =
          counts != nullptr ? counts->count(static_cast<PeerId>(p)) : 0;
      const std::uint64_t delta = cur >= prev[p] ? cur - prev[p] : cur;
      load[p] = 0.5 * load[p] + static_cast<double>(delta);
      prev[p] = cur;
    }
  }
  void on_membership(const FissioneNetwork& net) {
    for (std::size_t p = 0; p < load.size(); ++p) {
      if (!net.is_alive(static_cast<PeerId>(p))) {
        load[p] = 0.0;
        prev[p] = 0;
      }
    }
  }
  double at(PeerId p) const { return p < load.size() ? load[p] : 0.0; }
};

// load_of equals the eager EWMA, bitwise, for every id after every sweep:
// through service recorded on live and dead peers, ServiceLoadMap::reset
// and clear, joins recycling departed ids (with and without the membership
// hook), the map detached and re-attached, a second rebalancer draining the
// same map, and an idle stretch long enough to decay every load to zero.
TEST(RebalancerLoads, LazyDecayMatchesAnEagerSweepOfEveryPeer) {
  auto net =
      FissioneNetwork::build_snapshot(300, 5, FissioneNetwork::Config{});
  fissione::ServiceLoadMap load;
  net.set_service_load(&load);
  rebalance::RebalanceConfig cfg;
  cfg.trigger_load = 1e300;  // enabled but never fires: loads only
  cfg.sweep_interval = 1;
  rebalance::Rebalancer rb(net, cfg);
  rebalance::Rebalancer rival(net, cfg);
  EagerLoads model;
  EagerLoads rival_model;
  sim::Simulator sim;
  Rng rng(2718);

  const auto compare = [&net](const rebalance::Rebalancer& r,
                              const EagerLoads& m, int round) {
    for (PeerId p = 0; p < net.peer_id_bound() + 2; ++p) {
      ASSERT_EQ(r.load_of(p), m.at(p)) << "round " << round << " peer " << p;
    }
  };
  constexpr int kIdleFrom = 1200;
  constexpr int kIdleTo = kIdleFrom + 1150;
  std::vector<PeerId> departed;
  bool detached = false;
  for (int round = 0; round < kIdleTo + 300; ++round) {
    const bool idle = round >= kIdleFrom && round < kIdleTo;
    if (!idle) {
      const int adds = static_cast<int>(rng.next_index(12));
      for (int i = 0; i < adds; ++i) {
        const auto& alive = net.alive_peers();
        const std::uint64_t n = rng.next_bool(0.02)
                                    ? std::uint64_t{1} << rng.next_index(40)
                                    : 1 + rng.next_index(5);
        load.add(alive[rng.next_index(alive.size())], n);
      }
      if (!departed.empty() && rng.next_bool(0.05)) {
        // A walk decided before a departure lands on the dead id.
        const PeerId ghost = departed[rng.next_index(departed.size())];
        if (!net.is_alive(ghost)) {
          load.add(ghost, 1 + rng.next_index(3));
        }
      }
      if (rng.next_bool(0.03)) {
        load.reset(static_cast<PeerId>(rng.next_index(net.peer_id_bound())));
      }
      if (rng.next_bool(0.004)) {
        load.clear();
      }
      if (rng.next_bool(0.06)) {
        const double dice = rng.next_double();
        if (dice < 0.45 || net.num_peers() < 200) {
          net.join();
        } else {
          const auto& alive = net.alive_peers();
          const PeerId victim = alive[rng.next_index(alive.size())];
          departed.push_back(victim);
          if (dice < 0.8) {
            net.leave(victim);
          } else {
            net.crash(victim);
          }
        }
        if (rng.next_bool(0.8)) {  // otherwise the hook is not wired
          rb.on_membership(sim);
          model.on_membership(net);
          rival.on_membership(sim);
          rival_model.on_membership(net);
        }
      }
      if (rng.next_bool(0.01)) {
        detached = !detached;
        net.set_service_load(detached ? nullptr : &load);
      }
    }
    rb.on_query(sim, {});
    model.sweep(net);
    compare(rb, model, round);
    if (rng.next_bool(0.1)) {
      rival.on_query(sim, {});
      rival_model.sweep(net);
      compare(rival, rival_model, round);
    }
    if (HasFatalFailure()) {
      return;
    }
    if (round == kIdleTo - 1) {
      for (PeerId p = 0; p < net.peer_id_bound(); ++p) {
        ASSERT_EQ(rb.load_of(p), 0.0) << "peer " << p;
      }
    }
  }
  EXPECT_EQ(rb.stats().sweeps, static_cast<std::uint64_t>(kIdleTo + 300));
}

// decayed(x, k) equals k rounds of the eager `0.5 * x + 0.0`, bit for bit,
// over the whole range of positive doubles, subnormals included, and
// especially for k landing the result near and across the normal range's
// lower edge.
TEST(RebalancerLoads, DecayedEqualsRepeatedHalving) {
  Rng rng(1618);
  std::uint64_t mismatches = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t exponent = rng.next_index(2047);  // 0: subnormal
    const std::uint64_t mantissa =
        rng.engine()() & ((std::uint64_t{1} << 52) - 1);
    const double x = std::bit_cast<double>(exponent << 52 | mantissa);
    std::uint64_t k = rng.next_index(1200);
    if (i % 2 == 0 && x != 0.0) {
      // Land near the normal/subnormal edge.
      const int to_edge = std::ilogb(x) + 1022;
      k = static_cast<std::uint64_t>(
          std::max(0, to_edge + static_cast<int>(rng.next_index(70)) - 8));
    }
    double eager = x;
    for (std::uint64_t s = 0; s < k && eager != 0.0; ++s) {
      eager = 0.5 * eager + 0.0;
    }
    const double lazy = rebalance::Rebalancer::decayed(x, k);
    if (std::bit_cast<std::uint64_t>(lazy) !=
        std::bit_cast<std::uint64_t>(eager)) {
      ++mismatches;
      ADD_FAILURE() << std::hexfloat << x << " after " << k << ": " << lazy
                    << " != " << eager;
      if (mismatches > 5) {
        return;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace armada::core
