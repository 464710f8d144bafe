// Popularity-aware region replication over the DHT (extension).
//
// Armada's order-preserving naming concentrates skewed query traffic on the
// few peers in charge of hot attribute ranges. This module replicates the
// contents of hot regions — length-g Kautz prefixes, the granularity the
// PopularityTracker counts at — to k deterministic alternate names
// (MULTIPLE_HASH-style variants of the region prefix), so the query layer
// can route whole search classes to the cheapest live replica holder
// instead of fanning into the hot region.
//
// Like Armada itself the subsystem is layered over FISSIONE: it only uses
// publish/route/owner_of and never modifies the overlay. Replica contents
// live in the manager, not in Peer::store — the overlay's placement
// invariant (every stored object is prefixed by its peer's PeerID) stays
// intact, and check_invariants() keeps passing.
//
// Placement, churn repair, and teardown are priced through the transport as
// kHandoff traffic: one batched transfer per (primary, holder) pair, sized
// like the churn drivers' object handoffs. A holder is usable only once its
// transfers have *arrived* on the simulator, so replicas freshly placed (or
// being re-synced after churn) do not serve queries early.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_string.h"
#include "sim/event_queue.h"

namespace armada::replica {

/// Knobs of the replication / result-cache subsystem. The default
/// configuration disables every mechanism: attaching it to an index keeps
/// all queries bitwise identical to the plain engines.
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

/// Owns the replica placement: which regions are replicated, at which
/// deterministic alternate names, with which content snapshot.
class ReplicationManager {
 public:
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
    /// Content snapshot shared by all holders, canonically sorted by
    /// (object_id, payload). shared_ptr: in-flight serves scan the snapshot
    /// they captured even if a publish or repair swaps it meanwhile.
    std::shared_ptr<const std::vector<fissione::StoredObject>> objects;
  };

  /// Per-object surcharge on a replica transfer's byte size (the base
  /// message costs the queueing config's default size), mirroring the churn
  /// drivers' handoff pricing.
  static constexpr std::uint32_t kObjectBytes = 32;

  ReplicationManager(fissione::FissioneNetwork& net,
                     const ReplicationConfig& config, ReplicaStats& stats);

  bool replicated(const kautz::KautzString& prefix) const {
    return regions_.find(prefix) != regions_.end();
  }
  const RegionReplica* find(const kautz::KautzString& prefix) const;

  /// Replicate `prefix` now: snapshot the region's objects from its primary
  /// peers, derive up to max_replicas holder names
  /// kautz_hash("replica/<prefix>/<i>"), and price one kHandoff transfer
  /// per (primary, holder) pair on `sim`. Holders serve once their
  /// transfers arrive. No-op when already replicated.
  void replicate(sim::Simulator& sim, const kautz::KautzString& prefix);

  /// Drop the replica set of `prefix`, pricing one kHandoff control message
  /// per holder (the release notice). Queries stop using it immediately.
  void tear_down(sim::Simulator& sim, const kautz::KautzString& prefix);

  /// Churn repair: re-derive every region's holders against current
  /// membership, re-snapshot contents from the (possibly changed) primaries
  /// and re-sync holders whose peer moved, died, or whose content is stale.
  /// Transfers are priced as kHandoff on `sim` and counted as repairs.
  void repair(sim::Simulator& sim);

  /// Keep replica snapshots in step with a publish (placement in this repo
  /// is direct and free, so the replica copy updates the same way).
  void on_publish(const kautz::KautzString& object_id, std::uint64_t payload);

  /// True when `peer` is in charge of part of the region `prefix` (its
  /// PeerID and the prefix are comparable) — such peers are never holders.
  bool is_primary(fissione::PeerId peer,
                  const kautz::KautzString& prefix) const;

  /// Replicated regions in lexicographic prefix order (determinism seam).
  const std::map<kautz::KautzString, RegionReplica>& regions() const {
    return regions_;
  }

 private:
  std::vector<fissione::StoredObject> collect_objects(
      const kautz::KautzString& prefix) const;
  std::vector<fissione::PeerId> primaries(
      const kautz::KautzString& prefix) const;
  /// Price the (primaries -> holder) transfers for the current snapshot and
  /// mark the holder synced when the last one lands.
  void sync_holder(sim::Simulator& sim, const kautz::KautzString& prefix,
                   Holder& holder);

  fissione::FissioneNetwork& net_;
  const ReplicationConfig& config_;
  ReplicaStats& stats_;
  std::map<kautz::KautzString, RegionReplica> regions_;
};

}  // namespace armada::replica
