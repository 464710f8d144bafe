// ArmadaIndex: the Armada range-query layer, one engine for every query.
//
// Armada is *layered over* FISSIONE: it only uses the DHT's publish/route
// interfaces and the peers' neighbor tables — the overlay is never modified
// (the paper's "general range query scheme" property). An index names
// objects with Single_hash / Multiple_hash so attribute-close objects land
// on related peers, and answers:
//
//  * range queries with PIRA (one attribute, paper §4.2) and box queries
//    with MIRA (many attributes, §5). Both are one FRT pruning search over
//    a Kautz region (FrtSearch), reaching every destination exactly once
//    within |PeerID(issuer)| hops; they differ only in naming. Single_hash
//    gives PIRA the exact region <LowT, HighT>; Multiple_hash gives MIRA a
//    bounding region whose classes, branches and destination scans are
//    pruned against the query box;
//  * top-k queries (§6 names them as future work) and k-nearest-neighbor
//    queries. Interval preservation makes the peers' zones partition the
//    value axis in PeerID order, so both are sequential zone walks: top-k
//    from the top of the range downward until k objects are in hand, k-NN
//    outward from the query value until the k-th candidate is closer than
//    anything unexplored;
//  * range aggregates (COUNT/SUM/MIN/MAX), which run PIRA's search but fold
//    each destination's objects into one scalar, so no record leaves its
//    peer.
//
// Usage:
//   auto net = fissione::FissioneNetwork::build(2000, seed);
//   core::ArmadaIndex index =
//       core::ArmadaIndex::single(net, {0.0, 1000.0});
//   index.publish(score);
//   auto r = index.range_query(net.random_peer(), 70.0, 80.0);
//   // r.matches -> handles; index.attributes(h)[0] -> value
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "sim/event_queue.h"

namespace armada::core {

class ArmadaIndex {
 public:
  /// Single-attribute index over values in `domain`.
  static ArmadaIndex single(fissione::FissioneNetwork& net,
                            kautz::Interval domain);
  /// Multi-attribute index; one value interval per attribute.
  static ArmadaIndex multi(fissione::FissioneNetwork& net, kautz::Box domain);

  std::size_t num_attributes() const { return tree_.num_attributes(); }
  const kautz::PartitionTree& naming_tree() const { return tree_; }

  /// Publish an object; returns its handle. Point dimension must match the
  /// index. The object is stored at the peer owning its ObjectID.
  std::uint64_t publish(const std::vector<double>& point);
  std::uint64_t publish(double value);

  /// Attribute values of a published object: a view into the attribute
  /// column, valid until the next publish (which may reallocate it).
  std::span<const double> attributes(std::uint64_t handle) const;

  /// Single-attribute range query via PIRA (inclusive bounds).
  RangeQueryResult range_query(fissione::PeerId issuer, double lo,
                               double hi) const;

  /// Event-driven range query on a caller-owned simulator: the query's
  /// messages share the transport queues with every concurrent flow and
  /// obey the installed flow-control policy — under overload admission
  /// control the answer may be partial, with stats.coverage carrying the
  /// served fraction. `done` fires when the last branch lands. The index
  /// must outlive the query, and neither subsystem may be replaced while
  /// it is in flight.
  void range_query_async(sim::Simulator& sim, fissione::PeerId issuer,
                         double lo, double hi,
                         std::function<void(RangeQueryResult)> done) const;

  /// Multi-attribute box query via MIRA.
  RangeQueryResult box_query(fissione::PeerId issuer,
                             const kautz::Box& box) const;

  /// Top-k query (paper §6 future work): the k largest values within
  /// [lo, hi], walking zones from the top. Requires a single-attribute
  /// index.
  TopKResult top_k(fissione::PeerId issuer, double lo, double hi,
                   std::size_t k) const;

  /// k-nearest-neighbor query around `q` (extension), annexing the nearest
  /// unexplored zone below or above until nothing outside can beat the
  /// k-th candidate. Single-attribute.
  KnnResult nearest(fissione::PeerId issuer, double q, std::size_t k) const;

  /// In-network COUNT/SUM/MIN/MAX over [lo, hi] (extension): PIRA's search
  /// with every destination folding its objects into one reply. It never
  /// touches the replica set or the rebalancer: its folding filter answers
  /// no record, so a result cache it filled would serve empty answers.
  AggregateResult range_aggregate(fissione::PeerId issuer, double lo,
                                  double hi) const;

  /// Reference results by global scan (for tests): handles of matching
  /// objects, sorted.
  std::vector<std::uint64_t> scan_matches(const kautz::Box& box) const;

  /// Attach the popularity-aware replication / result-cache subsystem
  /// (src/replica/) with the given knobs. Queries issued afterwards may be
  /// served from caches or replica holders; a *disabled* config (the
  /// default) changes nothing — queries stay bitwise identical to an index
  /// without it. Calling again replaces the subsystem (placement and caches
  /// reset). Wire churn through it with the drivers' set_membership_hook:
  ///   driver.set_membership_hook([&] { index.replicas()->on_membership(sim); });
  replica::ReplicaSet& enable_replication(replica::ReplicationConfig config);

  /// The attached subsystem, or nullptr.
  replica::ReplicaSet* replicas() { return replicas_.get(); }
  const replica::ReplicaSet* replicas() const { return replicas_.get(); }

  /// Attach the online key-space rebalancer (src/rebalance/) with the given
  /// knobs. Queries issued afterwards feed its load/heat observations and
  /// drive its migration sweeps; a *disabled* config (the default) changes
  /// nothing — queries stay bitwise identical to an index without it.
  /// Calling again replaces the subsystem (flights and load history
  /// reset). Wire
  /// churn through it with the drivers' set_membership_hook, alongside the
  /// replica hook when both subsystems are enabled.
  rebalance::Rebalancer& enable_rebalancing(rebalance::RebalanceConfig config);

  /// The attached rebalancer, or nullptr.
  rebalance::Rebalancer* rebalancer() { return rebalancer_.get(); }
  const rebalance::Rebalancer* rebalancer() const { return rebalancer_.get(); }

 private:
  /// Predicate applied to the stored objects at each serving peer.
  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;

  /// What one PIRA or MIRA query asks of the search.
  struct Spec {
    /// Trace-root name and cache-tag prefix; static storage ("pira").
    const char* name;
    /// PIRA's exact region or MIRA's bounding region.
    kautz::KautzRegion region;
    /// Value bounds, one interval per attribute: the query's cache
    /// identity (its filter is a pure function of them).
    std::span<const kautz::Interval> bounds;
    /// MIRA's query box, which its bounding region over-approximates:
    /// classes, branches and destination scans are pruned against it.
    /// Null for PIRA, whose region is exact.
    const kautz::Box* box = nullptr;
    /// Whether the replica set and the rebalancer take part (when enabled).
    bool subsystems = true;
  };

  ArmadaIndex(fissione::FissioneNetwork& net, kautz::PartitionTree tree);

  /// Hashes `point` first, so a rejected point leaves the column alone.
  std::uint64_t publish_point(std::span<const double> point);

  /// Do object `handle`'s values lie in `box` (one interval per attribute)?
  bool point_in_box(std::uint64_t handle, const kautz::Box& box) const;

  /// Runs `spec` to completion on its own simulator
  /// (net::Transport::run_sync).
  RangeQueryResult search(const Spec& spec, fissione::PeerId issuer,
                          const ObjectFilter& matches) const;
  /// The range-query front end: opens the trace root, splits the region
  /// into common-prefix subregions and feeds them to the rebalancer, then
  /// runs one combined FrtSearch over the kept classes — or, with the
  /// replica set on, serves each class from a cache or the cheapest live
  /// holder and falls back to a per-class search. An object answers iff
  /// its ObjectID lies in the query and `matches` accepts it.
  void search_async(sim::Simulator& sim, const Spec& spec,
                    fissione::PeerId issuer, const ObjectFilter& matches,
                    std::function<void(RangeQueryResult)> done) const;

  fissione::FissioneNetwork& net_;
  kautz::PartitionTree tree_;
  /// The attribute column, stride m = num_attributes(): object h's values
  /// sit at [h*m, h*m + m), and size() / m objects are published.
  std::vector<double> values_;
  std::unique_ptr<replica::ReplicaSet> replicas_;  ///< null until enabled
  std::unique_ptr<rebalance::Rebalancer> rebalancer_;  ///< null until enabled
};

}  // namespace armada::core
