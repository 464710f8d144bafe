// PIRA — the PrunIng Routing Algorithm for single-attribute range queries
// (paper §4.2).
//
// A query [lo, hi] maps through Single_hash to the Kautz region
// <LowT, HighT>; interval preservation guarantees the matching objects live
// exactly on the peers in charge of that region. PIRA splits the region into
// at most three common-prefix subregions and runs the FRT pruning search on
// each, reaching every destination exactly once within |PeerID(issuer)| hops.
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

class Pira {
 public:
  /// `tree` must be single-attribute with k == net ObjectID length.
  Pira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree);

  /// Predicate applied to stored objects at destination peers (the local
  /// scan); typically an exact attribute check by the application layer.
  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;

  /// Value-level query [lo, hi] (inclusive), run to completion on its own
  /// simulator (net::Transport::run_sync).
  RangeQueryResult query(fissione::PeerId issuer, double lo, double hi,
                         const ObjectFilter& matches) const;

  /// Event-driven variant on a caller-owned simulator: the query's
  /// messages share the transport queues with every other flow on `sim`,
  /// obey the installed flow-control policy (backoff, admission shedding
  /// into partial answers with an explicit coverage fraction), and `done`
  /// fires when the last branch lands. See FrtSearch::run_async.
  void query_async(sim::Simulator& sim, fissione::PeerId issuer, double lo,
                   double hi, const ObjectFilter& matches,
                   std::function<void(RangeQueryResult)> done) const;

  /// Ground truth for tests: peers in charge of the region, i.e. peers whose
  /// PeerID prefixes some string of the region.
  std::vector<fissione::PeerId> expected_destinations(
      const kautz::KautzRegion& region) const;

  /// Attach the replica subsystem (nullptr detaches). Queries then route
  /// each search class through caches and the cheapest live replica when
  /// possible; with a null or *disabled* set the pre-existing combined
  /// search runs bitwise. The set must outlive every in-flight query.
  void set_replicas(replica::ReplicaSet* replicas) { replicas_ = replicas; }

  /// Attach the online rebalancer (nullptr detaches). Queries then feed its
  /// popularity/load observations and drive its migration sweeps; with a
  /// null or *disabled* rebalancer the query path is bitwise unchanged. The
  /// rebalancer must outlive every in-flight query.
  void set_rebalancer(rebalance::Rebalancer* rb) { rebalancer_ = rb; }

 private:
  fissione::FissioneNetwork& net_;  ///< mutable only for the queueing transport path
  kautz::PartitionTree tree_;  // by value: small and immutable
  replica::ReplicaSet* replicas_ = nullptr;  ///< optional, not owned
  rebalance::Rebalancer* rebalancer_ = nullptr;  ///< optional, not owned
};

}  // namespace armada::core
