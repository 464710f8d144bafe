// MIRA — multiple-attribute range queries over the FRT (paper §5).
//
// Multiple_hash is partial-order preserving, so every leaf whose subspace
// meets the query box lies inside the bounding region
// <Multiple_hash(lower corner), Multiple_hash(upper corner)>, but that
// region may also contain non-matching leaves. MIRA therefore prunes the
// FRT search geometrically: a branch stays alive iff the partition-tree
// subspace of its aligned label still intersects the real query box. Delay
// is bounded by |PeerID(issuer)| exactly as in PIRA.
#pragma once

#include <functional>

#include "armada/frt_search.h"
#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"

namespace armada::replica {
class ReplicaSet;
}  // namespace armada::replica

namespace armada::rebalance {
class Rebalancer;
}  // namespace armada::rebalance

namespace armada::core {

class Mira {
 public:
  /// `tree` is the multi-attribute naming tree (k == net ObjectID length).
  Mira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree);

  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;

  /// Query box: one closed interval per attribute. Runs to completion on
  /// its own simulator (net::Transport::run_sync).
  RangeQueryResult query(fissione::PeerId issuer, const kautz::Box& box,
                         const ObjectFilter& matches) const;

  /// Event-driven variant on a caller-owned simulator; shares the transport
  /// queues with concurrent flows and obeys the installed flow-control
  /// policy (partial answers carry the coverage fraction). See
  /// FrtSearch::run_async.
  void query_async(sim::Simulator& sim, fissione::PeerId issuer,
                   const kautz::Box& box, const ObjectFilter& matches,
                   std::function<void(RangeQueryResult)> done) const;

  /// Ground truth for tests: peers whose zone subspace intersects the box.
  std::vector<fissione::PeerId> expected_destinations(
      const kautz::Box& box) const;

  /// Attach the replica subsystem (nullptr detaches); see Pira::set_replicas.
  void set_replicas(replica::ReplicaSet* replicas) { replicas_ = replicas; }

  /// Attach the online rebalancer (nullptr detaches); see
  /// Pira::set_rebalancer.
  void set_rebalancer(rebalance::Rebalancer* rb) { rebalancer_ = rb; }

 private:
  fissione::FissioneNetwork& net_;  ///< mutable only for the queueing transport path
  kautz::PartitionTree tree_;  // by value: small and immutable
  replica::ReplicaSet* replicas_ = nullptr;  ///< optional, not owned
  rebalance::Rebalancer* rebalancer_ = nullptr;  ///< optional, not owned
};

}  // namespace armada::core
