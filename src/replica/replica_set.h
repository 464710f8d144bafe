// ReplicaSet: popularity-aware region replication plus a result cache over
// the DHT (extension), one instance per ArmadaIndex.
//
// Armada's order-preserving naming concentrates skewed query traffic on the
// few peers in charge of hot attribute ranges. This class replicates the
// contents of hot regions — length-g Kautz prefixes, the granularity the
// PopularityTracker counts at — to k deterministic alternate names
// (MULTIPLE_HASH-style variants of the region prefix), so the query layer
// can route whole search classes to the cheapest live replica holder
// instead of fanning into the hot region.
//
// Like Armada itself the subsystem is layered over FISSIONE: it only uses
// publish/route/owner_of and never modifies the overlay. Replica contents
// live here, not in Peer::store — the overlay's placement invariant (every
// stored object is prefixed by its peer's PeerID) stays intact, and
// check_invariants() keeps passing. Placement, churn repair and teardown
// are priced through the transport as kHandoff traffic: one batched
// transfer per (primary, holder) pair, sized like the churn drivers'
// object handoffs. A holder serves only once its transfers have *arrived*
// on the simulator, so replicas freshly placed (or being re-synced after
// churn) do not serve queries early.
//
// The query layer drives it through three hooks:
//
//   on_query     — advance the query-tick clock, charge popularity for each
//                  search class's region, replicate regions crossing the
//                  hot threshold and tear down cooled ones.
//   serve_class  — try to answer one search class without fanning into the
//                  region: from the issuer's result cache, from a cache
//                  entry on the walk toward the cheapest live replica
//                  holder, or by scanning the holder's replica snapshot.
//                  Returns false when the class must run the plain FRT.
//   on_publish / on_membership — currency: keep replica snapshots in step
//                  with publishes and churn, invalidate cached results.
//
// Disabled (the default ReplicationConfig), every hook is a no-op and the
// query layer takes its pre-existing code path bitwise.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "kautz/kautz_string.h"
#include "replica/popularity.h"
#include "replica/result_cache.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace armada::replica {

/// Knobs of the replication / result-cache subsystem. The default
/// configuration disables every mechanism: attaching it to an index keeps
/// all queries bitwise identical to an index without it.
struct ReplicationConfig {
  // --- replication ----------------------------------------------------------
  /// Replica holders per hot region; 0 disables replication entirely.
  std::uint32_t max_replicas = 0;
  /// Length of the Kautz prefix defining one tracked/replicated region.
  std::size_t region_prefix_len = 4;
  /// Decayed query count at which a region becomes hot and is replicated.
  double hot_threshold = 32.0;
  /// Decayed count below which an existing replica set is torn down (must
  /// stay below hot_threshold or placement would flap every sweep).
  double cool_threshold = 4.0;

  // --- result cache ---------------------------------------------------------
  /// TTL of a cached class result, in query ticks; 0 disables caching.
  std::uint64_t cache_ttl = 0;

  bool replication_enabled() const { return max_replicas > 0; }
  bool cache_enabled() const { return cache_ttl > 0; }
  bool enabled() const { return replication_enabled() || cache_enabled(); }
};

/// Cumulative counters of the subsystem (gauges noted as such).
struct ReplicaStats {
  std::uint64_t queries = 0;             ///< clock ticks observed
  std::uint64_t regions_replicated = 0;  ///< placement events
  std::uint64_t regions_torn_down = 0;
  std::uint64_t active_regions = 0;      ///< gauge
  std::uint64_t replica_objects = 0;     ///< gauge: objects held per region sum
  std::uint64_t placement_messages = 0;  ///< kHandoff transfers (all causes)
  std::uint64_t placement_bytes = 0;
  std::uint64_t repairs = 0;             ///< holder re-syncs forced by churn
  std::uint64_t replica_routes = 0;      ///< classes served by a holder
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_invalidated_publish = 0;
  std::uint64_t cache_invalidated_churn = 0;

  friend bool operator==(const ReplicaStats&, const ReplicaStats&) = default;
};

class ReplicaSet {
 public:
  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;
  /// Completion of a served class: the transport-priced cost fragment, the
  /// matching payload handles, and the holder that scanned for them
  /// (kNoPeer when the answer came from a cache entry).
  using ServeDone = std::function<void(
      sim::QueryStats, std::vector<std::uint64_t>, fissione::PeerId)>;

  struct Holder {
    kautz::KautzString name;  ///< deterministic alternate ObjectID
    fissione::PeerId peer = fissione::kNoPeer;
    /// Usable for serving: every placement/repair transfer has arrived.
    bool synced = false;
    /// Outstanding transfers; guarded by `version` so arrivals from a
    /// superseded sync cannot mark a newer one complete.
    std::uint32_t pending = 0;
    std::uint64_t version = 0;
  };

  struct RegionReplica {
    std::vector<Holder> holders;
    /// Content snapshot shared by all holders, sorted by (object_id,
    /// payload). shared_ptr: in-flight serves scan the snapshot they
    /// captured even if a publish or repair swaps it meanwhile.
    std::shared_ptr<const std::vector<fissione::StoredObject>> objects;
  };
  using Regions = std::map<kautz::KautzString, RegionReplica>;

  /// Popularity counters decay once every this many queries (the
  /// subsystem's clock is the query tick, not simulated time: synchronous
  /// query wrappers run each query on a fresh simulator, so sim time never
  /// advances across queries).
  static constexpr std::uint64_t kDecayInterval = 256;
  /// Cached class results retained across all peers before FIFO eviction.
  static constexpr std::size_t kCacheCapacity = 4096;
  /// Per-object surcharge on a replica transfer's byte size (the base
  /// message costs the queueing config's default size), mirroring the churn
  /// drivers' handoff pricing.
  static constexpr std::uint32_t kObjectBytes = 32;

  ReplicaSet(fissione::FissioneNetwork& net, ReplicationConfig config);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  const ReplicationConfig& config() const { return config_; }
  const ReplicaStats& stats() const { return stats_; }
  /// Replicated regions in lexicographic prefix order (determinism seam).
  const Regions& regions() const { return regions_; }
  /// True when `peer` is in charge of part of the region `prefix` (its
  /// PeerID and the prefix are comparable) — such peers are never holders.
  bool is_primary(fissione::PeerId peer,
                  const kautz::KautzString& prefix) const;
  /// The region's objects from its primaries and delegation slices, in
  /// (object_id, payload) order: the content a snapshot of `prefix` holds.
  std::vector<fissione::StoredObject> collect_objects(
      const kautz::KautzString& prefix) const;
  /// The holder scan: payloads of the objects of a sorted snapshot that
  /// pass `subregion.contains && filter`, in snapshot order. Only the run
  /// between subregion.lo() and subregion.hi() is visited (binary search);
  /// both tests still run on every visited object, so contains keeps
  /// CHECKing ObjectID lengths.
  static std::vector<std::uint64_t> scan(
      std::span<const fissione::StoredObject> sorted,
      const kautz::KautzRegion& subregion, const ObjectFilter& filter);

  /// Per-query entry point (ArmadaIndex calls it once per PIRA/MIRA query
  /// with the common-prefix subregions of the search classes). Transfers
  /// are priced on `sim` as kHandoff traffic.
  void on_query(sim::Simulator& sim,
                const std::vector<kautz::KautzRegion>& class_subregions);

  /// Serve one search class from cache or replica; false = run the FRT.
  /// `cache_tag` identifies the (query bounds, subregion) pair. The holder
  /// scan applies `subregion.contains && filter`, exactly the
  /// destination-scan semantics restricted to the class.
  bool serve_class(sim::Simulator& sim, fissione::PeerId issuer,
                   const kautz::KautzRegion& subregion,
                   const std::string& cache_tag, const ObjectFilter& filter,
                   ServeDone done);

  /// Cache a class result computed by the plain FRT path (full answers
  /// only — the caller checks coverage == 1 before offering it).
  void cache_insert(fissione::PeerId peer, const std::string& cache_tag,
                    const kautz::KautzRegion& subregion,
                    const std::vector<std::uint64_t>& matches);

  /// Keep replica snapshots in step with a publish (placement in this repo
  /// is direct and free, so the replica copy updates the same way) and
  /// drop the cached results it invalidates.
  void on_publish(const kautz::KautzString& object_id, std::uint64_t payload);
  /// Membership changed (join/leave/crash executed): drop every cached
  /// result, re-derive every region's holders against the new membership
  /// and re-snapshot its content. A holder keeps its sync only when its
  /// (name, peer) pair and the content survived; the rest re-sync, each
  /// counted as a repair. Wire this to the churn drivers'
  /// set_membership_hook.
  void on_membership(sim::Simulator& sim);

 private:
  /// The cheapest usable holder of a region and the issuer..holder walk.
  struct Choice {
    fissione::PeerId holder = fissione::kNoPeer;
    std::vector<fissione::PeerId> path;
  };

  /// Up to max_replicas holders of `prefix` under current membership: the
  /// live owners of kautz_hash("replica/<prefix>/<i>"), skipping primaries
  /// and repeat owners. owner_of is a pure index lookup, so the list is a
  /// deterministic function of the membership; the bounded scan keeps tiny
  /// overlays (where most owners are primaries) terminating with however
  /// many distinct holders exist. Holders come back unsynced.
  std::vector<Holder> derive_holders(const kautz::KautzString& prefix) const;
  /// The peers is_primary accepts for `prefix`, read off the network's
  /// zone index (cover_of_prefix): the PeerIDs extending the prefix, or
  /// the one PeerID prefixing it. PeerID order; callers whose order reaches
  /// the wire sort by alive_order.
  std::vector<fissione::PeerId> primaries(
      const kautz::KautzString& prefix) const;
  /// Sort peers by position in alive_peers(): the order transfers and
  /// notices go on the wire.
  void alive_order(std::vector<fissione::PeerId>& peers) const;
  /// collect_objects with the region's primaries already in hand.
  std::vector<fissione::StoredObject> collect(
      const kautz::KautzString& prefix,
      const std::vector<fissione::PeerId>& prims) const;
  /// Price the transfers of the region's objects to `holder` and mark it
  /// synced when the last one lands; `prims` in alive_order.
  void sync_holder(sim::Simulator& sim, const kautz::KautzString& prefix,
                   const std::vector<fissione::PeerId>& prims,
                   Holder& holder);
  /// Snapshot `prefix` and place its holders; no-op when none qualifies.
  void replicate(sim::Simulator& sim, const kautz::KautzString& prefix);
  /// Drop a replica set, pricing one kHandoff release notice per holder;
  /// queries stop using it immediately. Returns the next region.
  Regions::iterator tear_down(sim::Simulator& sim, Regions::iterator it);
  /// The holder that is synced, alive, still owns its name and has the
  /// lowest route latency from `issuer` (ties keep the lowest index);
  /// nothing when none is usable.
  std::optional<Choice> choose(fissione::PeerId issuer,
                               const RegionReplica& region) const;
  /// Tag the current trace, if one is recorded.
  void annotate(std::uint32_t flag) const;

  fissione::FissioneNetwork& net_;
  ReplicationConfig config_;
  ReplicaStats stats_;
  PopularityTracker popularity_;
  ResultCache cache_;
  Regions regions_;
};

}  // namespace armada::replica
