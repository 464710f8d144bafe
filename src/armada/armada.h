// ArmadaIndex: the public facade of the Armada range-query layer.
//
// Armada is *layered over* FISSIONE: it only uses the DHT's publish/route
// interfaces and the peers' neighbor tables — the overlay is never modified
// (the paper's "general range query scheme" property). An index names
// objects with Single_hash / Multiple_hash so attribute-close objects land
// on related peers, and answers range queries with PIRA (one attribute) or
// MIRA (many attributes).
//
// Usage:
//   auto net = fissione::FissioneNetwork::build(2000, seed);
//   core::ArmadaIndex index =
//       core::ArmadaIndex::single(net, {0.0, 1000.0});
//   index.publish(score);
//   auto r = index.range_query(net.random_peer(), 70.0, 80.0);
//   // r.matches -> handles; index.attributes(h)[0] -> value
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "armada/aggregate.h"
#include "armada/knn.h"
#include "armada/mira.h"
#include "armada/pira.h"
#include "armada/range_query.h"
#include "armada/topk.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"

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

  /// Attribute vector of a published object.
  const std::vector<double>& attributes(std::uint64_t handle) const;

  /// Single-attribute range query via PIRA (inclusive bounds).
  RangeQueryResult range_query(fissione::PeerId issuer, double lo,
                               double hi) const;

  /// Event-driven range query on a caller-owned simulator: the query's
  /// messages share the transport queues with every concurrent flow and
  /// obey the installed flow-control policy — under overload admission
  /// control the answer may be partial, with stats.coverage carrying the
  /// served fraction. `done` fires when the last branch lands.
  void range_query_async(sim::Simulator& sim, fissione::PeerId issuer,
                         double lo, double hi,
                         std::function<void(RangeQueryResult)> done) const;

  /// Multi-attribute box query via MIRA.
  RangeQueryResult box_query(fissione::PeerId issuer,
                             const kautz::Box& box) const;

  /// Top-k query (paper §6 future work): the k largest values within
  /// [lo, hi]. Requires a single-attribute index.
  TopKResult top_k(fissione::PeerId issuer, double lo, double hi,
                   std::size_t k) const;

  /// k-nearest-neighbor query around `q` (extension). Single-attribute.
  KnnResult nearest(fissione::PeerId issuer, double q, std::size_t k) const;

  /// In-network COUNT/SUM/MIN/MAX over [lo, hi] (extension).
  AggregateResult range_aggregate(fissione::PeerId issuer, double lo,
                                  double hi) const;

  /// Reference results by global scan (for tests): handles of matching
  /// objects, sorted.
  std::vector<std::uint64_t> scan_matches(const kautz::Box& box) const;

  const Pira& pira() const;
  const Mira& mira() const;

  /// Attach the popularity-aware replication / result-cache subsystem
  /// (src/replica/) with the given knobs. Queries issued afterwards may be
  /// served from caches or replica holders; a *disabled* config (the
  /// default) changes nothing — queries stay bitwise identical to the plain
  /// engines. Calling again replaces the subsystem (placement and caches
  /// reset). Wire churn through it with the drivers' set_membership_hook:
  ///   driver.set_membership_hook([&] { index.replicas()->on_membership(sim); });
  replica::ReplicaSet& enable_replication(replica::ReplicationConfig config);

  /// The attached subsystem, or nullptr.
  replica::ReplicaSet* replicas() { return replicas_.get(); }
  const replica::ReplicaSet* replicas() const { return replicas_.get(); }

  /// Attach the online key-space rebalancer (src/rebalance/) with the given
  /// knobs. Queries issued afterwards feed its load/heat observations and
  /// drive its migration sweeps; a *disabled* config (the default) changes
  /// nothing — queries stay bitwise identical to the plain engines. Calling
  /// again replaces the subsystem (flights and load history reset). Wire
  /// churn through it with the drivers' set_membership_hook, alongside the
  /// replica hook when both subsystems are enabled.
  rebalance::Rebalancer& enable_rebalancing(rebalance::RebalanceConfig config);

  /// The attached rebalancer, or nullptr.
  rebalance::Rebalancer* rebalancer() { return rebalancer_.get(); }
  const rebalance::Rebalancer* rebalancer() const { return rebalancer_.get(); }

 private:
  ArmadaIndex(fissione::FissioneNetwork& net, kautz::PartitionTree tree);

  bool point_in_box(const std::vector<double>& p, const kautz::Box& box) const;
  /// Point PIRA and MIRA at the current replica set and rebalancer.
  void attach_subsystems();

  fissione::FissioneNetwork& net_;
  kautz::PartitionTree tree_;
  std::vector<std::vector<double>> objects_;
  std::optional<Pira> pira_;
  std::optional<Mira> mira_;
  std::optional<TopK> topk_;
  std::optional<Knn> knn_;
  std::optional<Aggregate> aggregate_;
  std::unique_ptr<replica::ReplicaSet> replicas_;  ///< null until enabled
  std::unique_ptr<rebalance::Rebalancer> rebalancer_;  ///< null until enabled
};

}  // namespace armada::core
