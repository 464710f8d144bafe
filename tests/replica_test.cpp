// The popularity-aware replication / result-cache subsystem (src/replica/):
// disabled-config bitwise equivalence, replica-served correctness against
// the global scan and the paper delay bound, cache TTL / publish / churn
// invalidation, the cache's FIFO eviction order, churn repair (which
// holders it re-syncs, and a holder hosting a migrated slice), teardown of
// a cooled region, a publish into a replicated region, MIRA box
// queries with replication, caching and rebalancing all on, determinism
// of the placement and cache hit/miss sequences (ARMADA_FUZZ_SEED
// overrides the seed sweep), the holder scan and snapshot collection
// against brute-force scans, and the trace root flags that are a query's
// only record of its replica involvement.
#include "replica/replica_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "armada/armada.h"
#include "fissione/churn_driver.h"
#include "kautz/kautz_space.h"
#include "obs/trace.h"
#include "rebalance/rebalance.h"
#include "sim/churn.h"
#include "support/test_networks.h"
#include "support/test_workloads.h"
#include "util/rng.h"

namespace armada::replica {
namespace {

using core::RangeQueryResult;
using fissione::PeerId;
using testsupport::make_multi_index;
using testsupport::make_single_index;
using testsupport::publish_uniform_values;

std::vector<std::uint64_t> sorted(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Fixed CI seeds, or the single ARMADA_FUZZ_SEED override (same contract
/// as integration_fuzz_test — a failing seed replays the exact run).
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
  return {21, 22, 23};
}

/// One sync range query and how far it moved the subsystem's hit
/// counters: ReplicaStats holds the totals, so a query's own share is the
/// delta around it.
struct CountedQuery {
  RangeQueryResult result;
  std::uint64_t replica_routes = 0;
  std::uint64_t cache_hits = 0;
};

CountedQuery counted_query(core::ArmadaIndex& index, const ReplicaSet& rs,
                           PeerId issuer, double lo, double hi) {
  const ReplicaStats before = rs.stats();
  CountedQuery q{index.range_query(issuer, lo, hi)};
  q.replica_routes = rs.stats().replica_routes - before.replica_routes;
  q.cache_hits = rs.stats().cache_hits - before.cache_hits;
  return q;
}

ReplicationConfig small_scale_config() {
  ReplicationConfig cfg;
  cfg.max_replicas = 4;
  cfg.region_prefix_len = 4;
  cfg.hot_threshold = 4.0;
  cfg.cool_threshold = 0.5;
  cfg.cache_ttl = 8;
  return cfg;
}

// A disabled config (the default) must leave every query bitwise identical
// to an index that never attached the subsystem: identical stats structs,
// matches, and destinations, with every replica counter at zero.
TEST(ReplicaDisabled, DefaultConfigKeepsQueriesBitwise) {
  constexpr std::uint64_t kSeed = 91;
  auto plain = make_single_index(180, kSeed);
  auto attached = make_single_index(180, kSeed);
  publish_uniform_values(plain->index, 500, kSeed * 31 + 7);
  publish_uniform_values(attached->index, 500, kSeed * 31 + 7);
  attached->index.enable_replication(ReplicationConfig{});
  ASSERT_FALSE(attached->index.replicas()->config().enabled());

  Rng rng_a(kSeed + 5);
  Rng rng_b(kSeed + 5);
  for (int trial = 0; trial < 40; ++trial) {
    const auto qa = testsupport::random_subrange(
        rng_a, testsupport::kPaperDomain, 200.0);
    const auto qb = testsupport::random_subrange(
        rng_b, testsupport::kPaperDomain, 200.0);
    const PeerId ia = plain->random_issuer(rng_a);
    const PeerId ib = attached->random_issuer(rng_b);
    ASSERT_EQ(ia, ib);

    const RangeQueryResult ra = plain->index.range_query(ia, qa.lo, qa.hi);
    const RangeQueryResult rb = attached->index.range_query(ib, qb.lo, qb.hi);
    EXPECT_EQ(ra.stats, rb.stats);
    EXPECT_EQ(sorted(ra.matches), sorted(rb.matches));
    EXPECT_EQ(ra.destinations, rb.destinations);
  }
  EXPECT_EQ(attached->index.replicas()->stats(), ReplicaStats{});
}

// Heating one narrow range replicates its region; subsequent queries route
// the class to a holder (replica_routes grows across them), keep answering
// exactly what a global scan finds, and stay within the paper delay bound
// hops <= |PeerID(issuer)|.
TEST(ReplicaRouting, HotRegionServedByReplicaMatchesScanAndDelayBound) {
  constexpr std::uint64_t kSeed = 17;
  auto fx = make_single_index(200, kSeed);
  publish_uniform_values(fx->index, 800, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;  // isolate replication from caching
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  constexpr double kLo = 300.0;
  constexpr double kHi = 305.0;
  const auto truth = sorted(fx->index.scan_matches({{kLo, kHi}}));
  Rng rng(kSeed + 9);
  std::uint64_t replica_served_queries = 0;
  for (int q = 0; q < 60; ++q) {
    const PeerId issuer = fx->random_issuer(rng);
    const CountedQuery r = counted_query(fx->index, rs, issuer, kLo, kHi);
    EXPECT_EQ(sorted(r.result.matches), truth);
    EXPECT_EQ(r.result.stats.coverage, 1.0);
    EXPECT_LE(r.result.stats.delay,
              static_cast<double>(fx->net.peer(issuer).peer_id.length()));
    replica_served_queries += r.replica_routes > 0 ? 1 : 0;
  }
  EXPECT_GE(rs.stats().regions_replicated, 1u);
  EXPECT_GT(rs.stats().replica_routes, 0u);
  EXPECT_GT(rs.stats().placement_messages, 0u);
  EXPECT_GT(replica_served_queries, 0u);
  // Holders never sit on the region itself, and only live peers serve.
  for (const auto& [prefix, region] : rs.regions()) {
    for (const auto& holder : region.holders) {
      EXPECT_TRUE(fx->net.is_alive(holder.peer));
      EXPECT_FALSE(rs.is_primary(holder.peer, prefix));
    }
  }
}

// Cache-only config: a repeated (issuer, range) pair answers locally for
// free until the TTL expires, measured in query ticks.
TEST(ResultCaching, RepeatQueryHitsUntilTtlExpires) {
  constexpr std::uint64_t kSeed = 47;
  auto fx = make_single_index(160, kSeed);
  publish_uniform_values(fx->index, 500, kSeed * 31 + 7);
  ReplicationConfig cfg;
  cfg.max_replicas = 0;  // cache only
  cfg.cache_ttl = 3;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  Rng rng(kSeed + 3);
  const PeerId issuer = fx->random_issuer(rng);
  const CountedQuery first =
      counted_query(fx->index, rs, issuer, 200.0, 212.0);
  EXPECT_GT(first.result.stats.messages, 0u);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(rs.stats().cache_insertions, 0u);

  const CountedQuery hit = counted_query(fx->index, rs, issuer, 200.0, 212.0);
  EXPECT_EQ(hit.result.stats.messages, 0u);
  EXPECT_GT(hit.cache_hits, 0u);
  EXPECT_EQ(hit.result.stats.dest_peers, 0u);
  EXPECT_EQ(sorted(hit.result.matches), sorted(first.result.matches));

  // Advance the query-tick clock past the TTL with unrelated queries.
  for (int i = 0; i < 4; ++i) {
    fx->index.range_query(issuer, 700.0 + 20.0 * i, 705.0 + 20.0 * i);
  }
  const CountedQuery expired =
      counted_query(fx->index, rs, issuer, 200.0, 212.0);
  EXPECT_GT(expired.result.stats.messages, 0u);
  EXPECT_EQ(expired.cache_hits, 0u);
  EXPECT_EQ(sorted(expired.result.matches), sorted(first.result.matches));
}

// A publish into a cached range invalidates the covering entries: the next
// repeat query recomputes and includes the new object.
TEST(ResultCaching, PublishInvalidatesCoveringEntries) {
  constexpr std::uint64_t kSeed = 53;
  auto fx = make_single_index(160, kSeed);
  publish_uniform_values(fx->index, 500, kSeed * 31 + 7);
  ReplicationConfig cfg;
  cfg.max_replicas = 0;
  cfg.cache_ttl = 64;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  Rng rng(kSeed + 3);
  const PeerId issuer = fx->random_issuer(rng);
  fx->index.range_query(issuer, 100.0, 110.0);
  const CountedQuery warm = counted_query(fx->index, rs, issuer, 100.0, 110.0);
  EXPECT_GT(warm.cache_hits, 0u);

  const std::uint64_t fresh = fx->index.publish(105.0);
  EXPECT_GT(rs.stats().cache_invalidated_publish, 0u);

  const RangeQueryResult after = fx->index.range_query(issuer, 100.0, 110.0);
  const auto truth = sorted(fx->index.scan_matches({{100.0, 110.0}}));
  EXPECT_EQ(sorted(after.matches), truth);
  EXPECT_NE(std::find(after.matches.begin(), after.matches.end(), fresh),
            after.matches.end());
}

// Aggregate folds through its own PIRA, which no subsystem is attached to:
// its filter rejects every object, so a result cache it shared would hand
// the next range query on the same issuer and bounds an empty answer.
TEST(ResultCaching, AggregateLeavesTheRangeQueryCacheAlone) {
  constexpr std::uint64_t kSeed = 59;
  auto fx = make_single_index(160, kSeed);
  publish_uniform_values(fx->index, 500, kSeed * 31 + 7);
  ReplicationConfig cfg;
  cfg.max_replicas = 0;
  cfg.cache_ttl = 64;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  Rng rng(kSeed + 3);
  const PeerId issuer = fx->random_issuer(rng);
  const auto truth = sorted(fx->index.scan_matches({{200.0, 260.0}}));
  ASSERT_FALSE(truth.empty());
  const core::AggregateResult agg =
      fx->index.range_aggregate(issuer, 200.0, 260.0);
  EXPECT_EQ(agg.count, truth.size());
  EXPECT_EQ(rs.stats(), ReplicaStats{});

  const CountedQuery first =
      counted_query(fx->index, rs, issuer, 200.0, 260.0);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(sorted(first.result.matches), truth);
  const CountedQuery again =
      counted_query(fx->index, rs, issuer, 200.0, 260.0);
  EXPECT_GT(again.cache_hits, 0u);
  EXPECT_EQ(sorted(again.result.matches), truth);
}

// The FIFO eviction order holds exactly the live entries. An entry erased
// on expiry and inserted again is the newest, so the next eviction drops
// the oldest live entry rather than the fresh one through its stale key.
TEST(ResultCacheEviction, ReinsertAfterExpiryEvictsTheOldestLiveEntry) {
  const kautz::KautzRegion region(kautz::KautzString::parse("010"),
                                  kautz::KautzString::parse("012"));
  ResultCache cache(/*ttl=*/4, /*capacity=*/2);
  ASSERT_TRUE(cache.insert(1, "a", region, {1}, 0));
  ASSERT_TRUE(cache.insert(2, "b", region, {2}, 2));
  EXPECT_EQ(cache.lookup(1, "a", 4), nullptr);  // expired: erased
  ASSERT_TRUE(cache.insert(1, "a", region, {3}, 4));
  ASSERT_TRUE(cache.insert(3, "c", region, {4}, 5));  // evicts b

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(2, "b", 5), nullptr);
  const ResultCache::Entry* a = cache.lookup(1, "a", 5);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->matches, std::vector<std::uint64_t>{3});
  EXPECT_NE(cache.lookup(3, "c", 5), nullptr);
}

// The same through publish invalidation: the entry dropped by
// invalidate_object leaves no key behind in the eviction order.
TEST(ResultCacheEviction, ReinsertAfterInvalidationEvictsTheOldestLiveEntry) {
  const kautz::KautzRegion left(kautz::KautzString::parse("010"),
                                kautz::KautzString::parse("012"));
  const kautz::KautzRegion right(kautz::KautzString::parse("201"),
                                 kautz::KautzString::parse("212"));
  ResultCache cache(/*ttl=*/100, /*capacity=*/2);
  ASSERT_TRUE(cache.insert(1, "a", left, {1}, 0));
  ASSERT_TRUE(cache.insert(2, "b", right, {2}, 1));
  EXPECT_EQ(cache.invalidate_object(kautz::KautzString::parse("012")), 1u);
  ASSERT_TRUE(cache.insert(1, "a", left, {3}, 2));
  ASSERT_TRUE(cache.insert(3, "c", right, {4}, 3));  // evicts b

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(2, "b", 3), nullptr);
  const ResultCache::Entry* a = cache.lookup(1, "a", 3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->matches, std::vector<std::uint64_t>{3});
  EXPECT_NE(cache.lookup(3, "c", 3), nullptr);
}

// Killing a replica holder forces a repair: the holder list is re-derived
// against the new membership, re-synced over priced kHandoff transfers, and
// queries keep matching the global scan throughout.
TEST(ReplicaChurn, HolderCrashForcesRepairAndStaysCorrect) {
  constexpr std::uint64_t kSeed = 29;
  auto fx = make_single_index(220, kSeed);
  publish_uniform_values(fx->index, 700, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  constexpr double kLo = 300.0;
  constexpr double kHi = 305.0;
  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), kLo, kHi);
  }
  ASSERT_FALSE(rs.regions().empty());
  const PeerId victim = rs.regions().begin()->second.holders.front().peer;

  fissione::FissioneNetwork::MembershipReport report;
  fx->net.crash(victim, &report);
  const std::uint64_t messages_before = rs.stats().placement_messages;
  sim::Simulator sim;
  rs.on_membership(sim);
  sim.run();
  EXPECT_GT(rs.stats().repairs, 0u);
  EXPECT_GT(rs.stats().placement_messages, messages_before);

  const auto truth = sorted(fx->index.scan_matches({{kLo, kHi}}));
  for (int q = 0; q < 10; ++q) {
    const PeerId issuer = fx->random_issuer(rng);
    const RangeQueryResult r = fx->index.range_query(issuer, kLo, kHi);
    EXPECT_EQ(sorted(r.matches), truth);
    for (const auto& [prefix, region] : rs.regions()) {
      for (const auto& holder : region.holders) {
        EXPECT_TRUE(fx->net.is_alive(holder.peer));
      }
    }
  }
}

// Churn repair carries a holder over only when its (name, peer) pair and the
// region content survived the membership change: a no-op change re-syncs
// nothing, a crashed holder re-syncs exactly the holders whose pair is new,
// and a crashed primary that stored region objects re-syncs every holder of
// its region. Each re-sync bumps the holder's version and counts one repair.
TEST(ReplicaChurn, RepairResyncsExactlyTheHoldersThatChanged) {
  constexpr std::uint64_t kSeed = 29;
  auto fx = make_single_index(220, kSeed);
  publish_uniform_values(fx->index, 700, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;
  ReplicaSet& rs = fx->index.enable_replication(cfg);
  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
  }
  ASSERT_FALSE(rs.regions().empty());

  // (region prefix, holder name) -> (peer, version) of every holder.
  using Placement = std::map<std::pair<std::string, std::string>,
                             std::pair<PeerId, std::uint64_t>>;
  const auto placement = [&rs] {
    Placement out;
    for (const auto& [prefix, region] : rs.regions()) {
      for (const auto& holder : region.holders) {
        out[{prefix.to_string(), holder.name.to_string()}] = {holder.peer,
                                                              holder.version};
      }
    }
    return out;
  };
  // Holders re-synced since `before` (new pair or bumped version), per
  // region prefix; a re-synced holder waits on its transfers, every other
  // holder stays synced.
  const auto resynced = [&rs](const Placement& before, bool same_pair_only) {
    std::map<std::string, std::size_t> out;
    for (const auto& [prefix, region] : rs.regions()) {
      for (const auto& holder : region.holders) {
        const auto old =
            before.find({prefix.to_string(), holder.name.to_string()});
        const bool new_pair =
            old == before.end() || old->second.first != holder.peer;
        const bool again =
            new_pair || old->second.second != holder.version;
        if (same_pair_only) {
          EXPECT_EQ(again, new_pair) << holder.name.to_string();
        }
        EXPECT_EQ(holder.synced, !again) << holder.name.to_string();
        out[prefix.to_string()] += again ? 1 : 0;
      }
    }
    return out;
  };
  const auto total = [](const std::map<std::string, std::size_t>& per) {
    std::size_t n = 0;
    for (const auto& [prefix, count] : per) {
      n += count;
    }
    return n;
  };

  // No membership change: every holder keeps its pair and its sync.
  {
    const Placement before = placement();
    const ReplicaStats stats = rs.stats();
    sim::Simulator sim;
    rs.on_membership(sim);
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(placement(), before);
    EXPECT_EQ(total(resynced(before, true)), 0u);
    EXPECT_EQ(rs.stats().repairs, stats.repairs);
    EXPECT_EQ(rs.stats().placement_messages, stats.placement_messages);
  }

  // A crashed holder: exactly the holders whose (name, peer) pair is new
  // are re-synced.
  {
    const Placement before = placement();
    const std::uint64_t repairs = rs.stats().repairs;
    fx->net.crash(rs.regions().begin()->second.holders.front().peer);
    sim::Simulator sim;
    rs.on_membership(sim);
    const std::size_t fresh = total(resynced(before, true));
    EXPECT_GE(fresh, 1u);
    EXPECT_LT(fresh, before.size());
    EXPECT_EQ(rs.stats().repairs, repairs + fresh);
    sim.run();
    EXPECT_EQ(total(resynced(placement(), true)), 0u);
  }

  // A crashed primary that stored region objects: the region's content
  // changed, so every one of its holders is re-synced.
  {
    const kautz::KautzString prefix = rs.regions().begin()->first;
    PeerId victim = fissione::kNoPeer;
    for (const PeerId p : fx->net.alive_peers()) {
      const auto& store = fx->net.peer(p).store;
      if (rs.is_primary(p, prefix) &&
          std::any_of(store.begin(), store.end(), [&](const auto& obj) {
            return prefix.is_prefix_of(obj.object_id);
          })) {
        victim = p;
        break;
      }
    }
    ASSERT_NE(victim, fissione::kNoPeer);
    const Placement before = placement();
    const std::uint64_t repairs = rs.stats().repairs;
    fx->net.crash(victim);
    sim::Simulator sim;
    rs.on_membership(sim);
    const auto per_region = resynced(before, false);
    const std::size_t holders = rs.regions().at(prefix).holders.size();
    EXPECT_GT(holders, 0u);
    EXPECT_EQ(per_region.at(prefix.to_string()), holders);
    EXPECT_EQ(rs.stats().repairs, repairs + total(per_region));
    sim.run();
    EXPECT_EQ(total(resynced(placement(), true)), 0u);
  }
}

// A holder that hosts a migrated slice of its own region already stores
// those objects: its re-sync sends the slice nowhere (a transfer to itself
// would be a self-delivery, which the transport refuses), and it still
// serves the whole region.
TEST(ReplicaChurn, HolderHostingAMigratedSliceResyncsWithoutSelfTransfer) {
  constexpr std::uint64_t kSeed = 29;
  auto fx = make_single_index(220, kSeed);
  publish_uniform_values(fx->index, 700, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;
  ReplicaSet& rs = fx->index.enable_replication(cfg);
  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
  }
  ASSERT_FALSE(rs.regions().empty());
  const kautz::KautzString prefix = rs.regions().begin()->first;
  const PeerId host = rs.regions().begin()->second.holders.front().peer;
  std::vector<PeerId> stocked;  // primaries storing region objects
  for (const PeerId p : fx->net.alive_peers()) {
    const auto& store = fx->net.peer(p).store;
    if (rs.is_primary(p, prefix) &&
        std::any_of(store.begin(), store.end(), [&](const auto& obj) {
          return prefix.is_prefix_of(obj.object_id);
        })) {
      stocked.push_back(p);
    }
  }
  ASSERT_GE(stocked.size(), 2u);
  // Migrate one primary's zone to the holder, then crash another primary:
  // the region's content changed, so every holder re-syncs.
  const kautz::KautzString zone = fx->net.peer(stocked[0]).peer_id;
  fx->net.delegate_range(zone, host, fx->net.detach_range(zone));
  fx->net.crash(stocked[1]);
  const std::uint64_t repairs = rs.stats().repairs;
  sim::Simulator sim;
  rs.on_membership(sim);
  sim.run();
  EXPECT_GT(rs.stats().repairs, repairs);
  for (const auto& [p, region] : rs.regions()) {
    for (const auto& holder : region.holders) {
      EXPECT_TRUE(holder.synced) << holder.name.to_string();
    }
  }
  const auto truth = sorted(fx->index.scan_matches({{300.0, 305.0}}));
  const std::uint64_t routed = rs.stats().replica_routes;
  for (int q = 0; q < 10; ++q) {
    const RangeQueryResult r =
        fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
    EXPECT_EQ(sorted(r.matches), truth);
  }
  EXPECT_GT(rs.stats().replica_routes, routed);
  fx->net.check_invariants();
}

// Full churn-driver wiring: membership events fire the hook, which clears
// the cache (counted) and repairs placement; queries after the churn burst
// still match a fresh global scan.
TEST(ReplicaChurn, DriverHookInvalidatesCacheAndKeepsQueriesExact) {
  constexpr std::uint64_t kSeed = 37;
  auto fx = make_single_index(220, kSeed);
  publish_uniform_values(fx->index, 700, kSeed * 31 + 7);
  ReplicaSet& rs = fx->index.enable_replication(small_scale_config());

  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
  }
  ASSERT_GT(rs.stats().cache_insertions, 0u);

  sim::Simulator sim;
  fissione::ChurnDriver driver(fx->net, sim);
  driver.set_membership_hook([&rs, &sim] { rs.on_membership(sim); });
  std::vector<sim::ChurnEvent> events;
  for (int i = 0; i < 12; ++i) {
    const auto kind = i % 3 == 0   ? sim::ChurnEventKind::kJoin
                      : i % 3 == 1 ? sim::ChurnEventKind::kLeave
                                   : sim::ChurnEventKind::kCrash;
    events.push_back({1.0 + static_cast<double>(i), kind});
  }
  driver.schedule(events);
  sim.run();
  EXPECT_GT(rs.stats().cache_invalidated_churn, 0u);

  const auto truth = sorted(fx->index.scan_matches({{300.0, 305.0}}));
  for (int q = 0; q < 10; ++q) {
    const RangeQueryResult r =
        fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
    EXPECT_EQ(sorted(r.matches), truth);
  }
}

// A replicated region whose decayed count falls below cool_threshold is torn
// down at a decay sweep: regions_torn_down rises, the region stops serving,
// each live holder gets one kHandoff release notice (a holder that crashed
// with no membership hook wired gets none), and later answers still equal
// the global scan.
TEST(ReplicaTeardown, CooledRegionReleasesEachLiveHolderOnce) {
  constexpr std::uint64_t kSeed = 53;
  auto fx = make_single_index(220, kSeed);
  publish_uniform_values(fx->index, 700, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
  }
  ASSERT_FALSE(rs.regions().empty());
  const ReplicaSet::Regions replicated = rs.regions();
  const PeerId crashed = replicated.begin()->second.holders.front().peer;
  fx->net.crash(crashed);
  std::vector<PeerId> live_holders;
  for (const auto& [prefix, region] : replicated) {
    for (const ReplicaSet::Holder& holder : region.holders) {
      if (fx->net.is_alive(holder.peer)) {
        live_holders.push_back(holder.peer);
      }
    }
  }

  ASSERT_FALSE(live_holders.empty());

  // Tick the query clock without charging any region until every replica
  // set has cooled off, recording the release notices under one trace.
  auto rec = std::make_shared<obs::TraceRecorder>();
  fx->net.transport().attach_trace(rec);
  sim::Simulator sim;
  const std::uint64_t placement_before = rs.stats().placement_messages;
  {
    const obs::TraceRecorder::Scope scope =
        rec->enter(rec->begin_trace("cool", 0, sim.now()));
    for (std::uint64_t tick = 0; !rs.regions().empty(); ++tick) {
      ASSERT_LT(tick, 16 * ReplicaSet::kDecayInterval);
      rs.on_query(sim, {});
    }
  }
  sim.run();
  fx->net.transport().detach_trace();

  EXPECT_EQ(rs.stats().regions_torn_down, replicated.size());
  EXPECT_EQ(rs.stats().active_regions, 0u);
  EXPECT_EQ(rs.stats().replica_objects, 0u);
  EXPECT_EQ(rs.stats().placement_messages - placement_before,
            live_holders.size());
  std::vector<PeerId> notified;
  for (const obs::Span& s : rec->spans()) {
    if (s.parent != 0) {
      EXPECT_EQ(s.cls, net::TrafficClass::kHandoff);
      notified.push_back(s.to);
    }
  }
  std::sort(live_holders.begin(), live_holders.end());
  std::sort(notified.begin(), notified.end());
  EXPECT_EQ(notified, live_holders);
  EXPECT_EQ(std::count(notified.begin(), notified.end(), crashed), 0);

  // The region no longer serves; answers come from the plain search.
  const auto truth = sorted(fx->index.scan_matches({{300.0, 305.0}}));
  const CountedQuery first =
      counted_query(fx->index, rs, fx->random_issuer(rng), 300.0, 305.0);
  EXPECT_EQ(first.replica_routes, 0u);
  EXPECT_EQ(sorted(first.result.matches), truth);
  for (int q = 0; q < 10; ++q) {
    const RangeQueryResult r =
        fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
    EXPECT_EQ(sorted(r.matches), truth);
  }
}

// A publish into a replicated region updates its snapshot copy-on-write: a
// snapshot captured before it stays as it was, and the holder scan serves
// the new object at once.
TEST(ReplicaPublish, PublishIntoReplicatedRegionIsServedByTheHolderScan) {
  constexpr std::uint64_t kSeed = 59;
  auto fx = make_single_index(200, kSeed);
  publish_uniform_values(fx->index, 800, kSeed * 31 + 7);
  ReplicationConfig cfg = small_scale_config();
  cfg.cache_ttl = 0;
  ReplicaSet& rs = fx->index.enable_replication(cfg);

  Rng rng(kSeed + 9);
  for (int q = 0; q < 20; ++q) {
    fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
  }
  const ReplicaSet::Regions before = rs.regions();
  const std::uint64_t replica_objects = rs.stats().replica_objects;

  const std::uint64_t handle = fx->index.publish(302.5);
  kautz::KautzString oid;
  for (PeerId p : fx->net.alive_peers()) {
    fx->net.for_each_owned(p, [&](const fissione::StoredObject& obj) {
      if (obj.payload == handle) {
        oid = obj.object_id;
      }
    });
  }
  const kautz::KautzString prefix = oid.prefix(cfg.region_prefix_len);
  ASSERT_TRUE(before.contains(prefix));
  const auto& old_snapshot = before.at(prefix).objects;
  const auto& new_snapshot = rs.regions().at(prefix).objects;
  EXPECT_NE(new_snapshot, old_snapshot);
  EXPECT_EQ(new_snapshot->size(), old_snapshot->size() + 1);
  EXPECT_TRUE(std::is_sorted(new_snapshot->begin(), new_snapshot->end()));
  EXPECT_EQ(*new_snapshot, rs.collect_objects(prefix));
  EXPECT_EQ(rs.stats().replica_objects, replica_objects + 1);
  for (const auto& [other, region] : rs.regions()) {
    if (other != prefix) {
      EXPECT_EQ(region.objects, before.at(other).objects);
    }
  }

  // The new object's own class is served by a holder, which finds it.
  sim::Simulator sim;
  std::vector<std::uint64_t> matches;
  PeerId served_by = fissione::kNoPeer;
  const std::uint64_t routes = rs.stats().replica_routes;
  ASSERT_TRUE(rs.serve_class(
      sim, fx->random_issuer(rng), kautz::KautzRegion(oid, oid), "new-object",
      [](const fissione::StoredObject&) { return true; },
      [&](sim::QueryStats, std::vector<std::uint64_t> m, PeerId holder) {
        matches = std::move(m);
        served_by = holder;
      }));
  sim.run();
  EXPECT_EQ(rs.stats().replica_routes, routes + 1);
  EXPECT_EQ(matches, std::vector<std::uint64_t>{handle});
  const auto& holders = rs.regions().at(prefix).holders;
  EXPECT_TRUE(std::any_of(holders.begin(), holders.end(),
                          [served_by](const ReplicaSet::Holder& h) {
                            return h.peer == served_by;
                          }));

  const auto truth = sorted(fx->index.scan_matches({{300.0, 305.0}}));
  ASSERT_TRUE(std::binary_search(truth.begin(), truth.end(), handle));
  for (int q = 0; q < 10; ++q) {
    const RangeQueryResult r =
        fx->index.range_query(fx->random_issuer(rng), 300.0, 305.0);
    EXPECT_EQ(sorted(r.matches), truth);
  }
}

// MIRA box queries with replication, the result cache and the rebalancer
// all on: three hot boxes repeat, so their regions replicate, walks fill
// path caches and hot peers shed ranges. Every answer equals the global
// scan at coverage 1 inside the delay bound, all three subsystems act, and
// the overlay invariants hold afterwards.
TEST(ReplicaMira, BoxQueriesWithEverySubsystemOnMatchTheScan) {
  const kautz::Box domain{{0.0, 1000.0}, {0.0, 1000.0}};
  const kautz::Box boxes[] = {{{100.0, 140.0}, {200.0, 240.0}},
                              {{480.0, 520.0}, {610.0, 650.0}},
                              {{830.0, 870.0}, {90.0, 130.0}}};
  for (const std::uint64_t seed : fuzz_seeds()) {
    auto fx = make_multi_index(200, seed, domain);
    testsupport::publish_uniform_points(fx->index, 1500, seed * 31 + 7);
    fissione::ServiceLoadMap load;
    fx->net.set_service_load(&load);
    ReplicaSet& rs = fx->index.enable_replication(small_scale_config());
    rebalance::RebalanceConfig rcfg;
    rcfg.trigger_load = 2.5;
    rcfg.target_load = 1.25;
    rcfg.sweep_interval = 8;
    rcfg.cooldown = 32;
    const rebalance::Rebalancer& rb = fx->index.enable_rebalancing(rcfg);

    Rng rng(seed + 17);
    for (int q = 0; q < 300; ++q) {
      const kautz::Box& box = boxes[rng.next_index(3)];
      const PeerId issuer = fx->random_issuer(rng);
      const RangeQueryResult r = fx->index.box_query(issuer, box);
      ASSERT_EQ(sorted(r.matches), fx->index.scan_matches(box))
          << "seed " << seed << " query " << q;
      EXPECT_EQ(r.stats.coverage, 1.0);
      EXPECT_LE(r.stats.delay,
                static_cast<double>(fx->net.peer(issuer).peer_id.length()));
    }
    EXPECT_GT(rs.stats().replica_routes, 0u) << "seed " << seed;
    EXPECT_GT(rs.stats().cache_hits, 0u) << "seed " << seed;
    EXPECT_GT(rb.stats().migrations_completed, 0u) << "seed " << seed;
    fx->net.check_invariants();
  }
}

// Placement, routing, and the cache hit/miss sequence are deterministic
// functions of (network seed, workload seed): two fresh runs produce
// bit-identical per-query stats, matches, and final subsystem counters.
TEST(ReplicaDeterminism, PlacementAndCacheSequencesReplay) {
  for (const std::uint64_t seed : fuzz_seeds()) {
    std::vector<sim::QueryStats> stats[2];
    std::vector<std::vector<std::uint64_t>> matches[2];
    ReplicaStats final_stats[2];
    std::vector<std::string> regions[2];
    for (int run = 0; run < 2; ++run) {
      auto fx = make_single_index(180, seed);
      publish_uniform_values(fx->index, 600, seed * 31 + 7);
      ReplicaSet& rs = fx->index.enable_replication(small_scale_config());
      Rng rng(seed + 13);
      for (int q = 0; q < 50; ++q) {
        // Quantized ranges so some queries repeat (cache traffic) while
        // others spread (popularity decay and teardown paths).
        const double lo = 5.0 * static_cast<double>(rng.next_u64(40));
        const PeerId issuer = fx->random_issuer(rng);
        const RangeQueryResult r =
            fx->index.range_query(issuer, lo, lo + 5.0);
        stats[run].push_back(r.stats);
        matches[run].push_back(sorted(r.matches));
      }
      final_stats[run] = rs.stats();
      for (const auto& [prefix, region] : rs.regions()) {
        regions[run].push_back(prefix.to_string());
      }
    }
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(matches[0], matches[1]);
    EXPECT_EQ(final_stats[0], final_stats[1]);
    EXPECT_EQ(regions[0], regions[1]);
  }
}

// A query's replica involvement is recorded once, on its trace root; the
// totals live in ReplicaStats. With every query traced, each root carries
// kFlagReplicaRoute exactly when its query moved replica_routes, and
// kFlagCacheHit exactly when it moved cache_hits.
TEST(ReplicaTracing, RootFlagsMatchTheSubsystemCounters) {
  constexpr std::uint64_t kSeed = 19;
  auto fx = make_single_index(200, kSeed);
  publish_uniform_values(fx->index, 800, kSeed * 31 + 7);
  ReplicaSet& rs = fx->index.enable_replication(small_scale_config());
  obs::TraceConfig tc;
  tc.sample_period = 1;
  auto rec = std::make_shared<obs::TraceRecorder>(tc);
  fx->net.transport().attach_trace(rec);

  Rng rng(kSeed + 9);
  std::uint64_t routed = 0;
  std::uint64_t cached = 0;
  for (int q = 0; q < 80; ++q) {
    const std::size_t first_span = rec->spans().size();
    const CountedQuery c =
        counted_query(fx->index, rs, fx->random_issuer(rng), 300.0, 305.0);
    const auto& spans = rec->spans();
    ASSERT_LT(first_span, spans.size()) << "query " << q;
    const obs::Span& root = spans[first_span];
    ASSERT_EQ(root.parent, 0u) << "query " << q;
    EXPECT_EQ(std::count_if(
                  spans.begin() + static_cast<std::ptrdiff_t>(first_span),
                  spans.end(),
                  [](const obs::Span& s) { return s.parent == 0; }),
              1)
        << "query " << q;
    EXPECT_EQ((root.flags & obs::kFlagReplicaRoute) != 0,
              c.replica_routes > 0)
        << "query " << q;
    EXPECT_EQ((root.flags & obs::kFlagCacheHit) != 0, c.cache_hits > 0)
        << "query " << q;
    routed += c.replica_routes > 0 ? 1 : 0;
    cached += c.cache_hits > 0 ? 1 : 0;
  }
  fx->net.transport().detach_trace();
  EXPECT_GT(routed, 0u);
  EXPECT_GT(cached, 0u);
  EXPECT_EQ(rec->validate(), "");
}

// The holder scan binary-searches the sorted snapshot; it returns what the
// linear `contains && filter` scan returns, in the same order, wherever the
// bounds fall: before, on, between or after snapshot objects, over runs
// holding nothing, and over an empty snapshot.
TEST(ReplicaScan, BinarySearchedScanMatchesTheLinearScan) {
  constexpr std::size_t kLen = 48;
  Rng rng(31);
  std::vector<fissione::StoredObject> snapshot;
  for (std::uint64_t i = 0; i < 300; ++i) {
    snapshot.push_back({kautz::random_string(rng, kLen), i});
  }
  // Equal ObjectIDs with distinct payloads, as equal published values give.
  for (std::uint64_t i = 0; i < 30; ++i) {
    snapshot.push_back({snapshot[i * 7].object_id, 1000 + i});
  }
  std::sort(snapshot.begin(), snapshot.end());
  const ReplicaSet::ObjectFilter filter =
      [](const fissione::StoredObject& obj) { return obj.payload % 3 != 0; };
  const auto linear = [&filter](std::span<const fissione::StoredObject> objs,
                                const kautz::KautzRegion& region) {
    std::vector<std::uint64_t> out;
    for (const fissione::StoredObject& obj : objs) {
      if (region.contains(obj.object_id) && filter(obj)) {
        out.push_back(obj.payload);
      }
    }
    return out;
  };

  // Bounds on objects, one step before and after them, between them, and
  // at both ends of the space.
  std::vector<kautz::KautzString> bounds;
  for (const fissione::StoredObject& obj : snapshot) {
    bounds.push_back(obj.object_id);
    if (!kautz::is_space_min(obj.object_id)) {
      bounds.push_back(kautz::predecessor(obj.object_id));
    }
    if (!kautz::is_space_max(obj.object_id)) {
      bounds.push_back(kautz::successor(obj.object_id));
    }
  }
  for (int i = 0; i < 100; ++i) {
    bounds.push_back(kautz::random_string(rng, kLen));
  }
  const kautz::KautzString lowest =
      kautz::min_extension(kautz::KautzString{}, kLen);
  const kautz::KautzString highest =
      kautz::max_extension(kautz::KautzString{}, kLen);
  bounds.push_back(lowest);
  bounds.push_back(highest);

  std::size_t empty_runs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    kautz::KautzString lo = bounds[rng.next_index(bounds.size())];
    kautz::KautzString hi = bounds[rng.next_index(bounds.size())];
    if (hi < lo) {
      std::swap(lo, hi);
    }
    const kautz::KautzRegion region(lo, hi);
    const std::vector<std::uint64_t> want = linear(snapshot, region);
    ASSERT_EQ(ReplicaSet::scan(snapshot, region, filter), want)
        << region.to_string();
    empty_runs += want.empty() ? 1 : 0;
  }
  EXPECT_GT(empty_runs, 0u);
  const kautz::KautzRegion all(lowest, highest);
  EXPECT_EQ(ReplicaSet::scan(snapshot, all, filter), linear(snapshot, all));
  EXPECT_TRUE(ReplicaSet::scan({}, all, filter).empty());
}

// collect_objects reads the region's primaries off the zone index and
// skips the prefix test below the prefix; with migrated zones and sub-zones
// in the delegation registry it still equals a scan of every native store
// and every delegation, for prefixes above, at and below peer depth.
TEST(ReplicaScan, CollectObjectsMatchesABruteForceScanWithDelegations) {
  auto fx = make_single_index(120, 41);
  auto& net = fx->net;
  publish_uniform_values(fx->index, 900, 43);
  // Migrate three whole zones and two sub-zones to disjoint hosts.
  std::vector<PeerId> donors = net.alive_peers();
  std::sort(donors.begin(), donors.end(), [&net](PeerId a, PeerId b) {
    return net.store_of(a).size() > net.store_of(b).size();
  });
  Rng rng(47);
  for (std::size_t i = 0; i < 5; ++i) {
    kautz::KautzString range = net.peer_id(donors[i]);
    if (i >= 3) {
      const std::uint8_t s = range.digit(range.length() - 1) == 0 ? 1 : 0;
      range.push_back(s);
    }
    PeerId host = fissione::kNoPeer;
    while (host == fissione::kNoPeer) {
      const PeerId p = net.alive_peers()[rng.next_index(net.num_peers())];
      const kautz::KautzString& pid = net.peer_id(p);
      if (!pid.is_prefix_of(range) && !range.is_prefix_of(pid)) {
        host = p;
      }
    }
    net.delegate_range(range, host, net.detach_range(range));
  }
  ASSERT_EQ(net.delegations().size(), 5u);
  net.check_invariants();
  ReplicaSet& rs = fx->index.enable_replication(small_scale_config());

  std::size_t checked = 0;
  for (std::size_t len = 1; len <= 8; ++len) {
    for (const kautz::KautzString& prefix : kautz::enumerate(len)) {
      std::vector<fissione::StoredObject> want;
      const auto take = [&](std::span<const fissione::StoredObject> objs) {
        for (const fissione::StoredObject& obj : objs) {
          if (prefix.is_prefix_of(obj.object_id)) {
            want.push_back(obj);
          }
        }
      };
      for (PeerId p : net.alive_peers()) {
        take(net.peer(p).store);
      }
      for (const auto& [range, d] : net.delegations()) {
        take(d.objects);
      }
      std::sort(want.begin(), want.end());
      ASSERT_EQ(rs.collect_objects(prefix), want) << prefix.to_string();
      checked += want.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(checked, 300u);
}

}  // namespace
}  // namespace armada::replica
