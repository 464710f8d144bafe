// ReplicaSet: facade of the popularity-aware replication / result-cache
// subsystem, one instance per ArmadaIndex.
//
// The query layer drives it through three hooks:
//
//   on_query     — advance the query-tick clock, charge popularity for each
//                  search class's region, replicate regions crossing the
//                  hot threshold and tear down cooled ones (transfers are
//                  priced on the caller's simulator as kHandoff traffic).
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
#include <string>
#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "replica/popularity.h"
#include "replica/replication.h"
#include "replica/result_cache.h"
#include "replica/selector.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"

namespace armada::replica {

class ReplicaSet {
 public:
  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;
  /// Completion of a served class: the transport-priced cost fragment, the
  /// matching payload handles, and the holder that scanned for them
  /// (kNoPeer when the answer came from a cache entry).
  using ServeDone = std::function<void(
      sim::QueryStats, std::vector<std::uint64_t>, fissione::PeerId)>;

  /// Popularity counters decay once every this many queries (the
  /// subsystem's clock is the query tick, not simulated time: synchronous
  /// query wrappers run each query on a fresh simulator, so sim time never
  /// advances across queries).
  static constexpr std::uint64_t kDecayInterval = 256;
  /// Cached class results retained across all peers before FIFO eviction.
  static constexpr std::size_t kCacheCapacity = 4096;

  ReplicaSet(fissione::FissioneNetwork& net, ReplicationConfig config);

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  const ReplicationConfig& config() const { return config_; }
  const ReplicaStats& stats() const { return stats_; }
  const ReplicationManager& manager() const { return manager_; }
  const PopularityTracker& popularity() const { return popularity_; }
  const ResultCache& cache() const { return cache_; }

  /// Per-query entry point (RangeFrontEnd calls it once per PIRA/MIRA query
  /// with the common-prefix subregions of the search classes).
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

  void on_publish(const kautz::KautzString& object_id, std::uint64_t payload);
  /// Membership changed (join/leave/crash executed): re-place and re-sync
  /// replicas, drop every cached result. Wire this to the churn drivers'
  /// set_membership_hook.
  void on_membership(sim::Simulator& sim);

 private:
  fissione::FissioneNetwork& net_;
  ReplicationConfig config_;
  ReplicaStats stats_;
  PopularityTracker popularity_;
  ReplicationManager manager_;
  ReplicaSelector selector_;
  ResultCache cache_;
};

}  // namespace armada::replica
