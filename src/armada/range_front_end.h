// The range-query front end shared by PIRA (paper §4.2) and MIRA (§5).
//
// Both engines are one FRT pruning search over a Kautz region; they differ
// only in naming. Single_hash gives PIRA the exact region <LowT, HighT>;
// Multiple_hash gives MIRA a bounding region whose classes, branches and
// destination scans are pruned against the query box. An engine builds a
// Spec — region, value bounds and, for MIRA, the box — and the front end
// does the rest once:
//
//   * opens the query's trace root;
//   * nulls out a detached or *disabled* replica set and rebalancer;
//   * splits the region into common-prefix subregions and feeds every one
//     to the rebalancer (before MIRA's first-symbol skip);
//   * builds one FrtSearchClass per kept subregion and the destination scan;
//   * runs the combined FrtSearch, or — with replication or caching on —
//     serves each class from a cache or the cheapest live replica holder
//     and falls back to a per-class FRT search otherwise.
//
// Per-class fragments fan into one RangeQueryResult with the
// concurrent-composition algebra (messages sum, delay/latency max, coverage
// min across branches — conservative where the combined search computes
// the exact shed fraction). Full FRT class answers (coverage == 1) are
// offered back to the issuer's result cache, so repeat queries
// short-circuit even for classes that were never replicated.
#pragma once

#include <functional>
#include <span>

#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"
#include "sim/event_queue.h"

namespace armada::replica {
class ReplicaSet;
}  // namespace armada::replica

namespace armada::rebalance {
class Rebalancer;
}  // namespace armada::rebalance

namespace armada::core {

class RangeFrontEnd {
 public:
  /// Predicate applied to stored objects at destination peers (the local
  /// scan); typically an exact attribute check by the application layer.
  using ObjectFilter = std::function<bool(const fissione::StoredObject&)>;

  /// Attach the replica subsystem and the online rebalancer (null detaches
  /// either). Queries then route each search class through caches and the
  /// cheapest live replica when possible, and feed the rebalancer's
  /// popularity/load observations and migration sweeps. Neither is owned;
  /// each must outlive every in-flight query. A null or *disabled* one
  /// leaves the query path bitwise unchanged.
  void set_subsystems(replica::ReplicaSet* replicas,
                      rebalance::Rebalancer* rebalancer) {
    replicas_ = replicas;
    rebalancer_ = rebalancer;
  }

 protected:
  /// What one query asks of the front end.
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
  };

  /// `tree` must have depth k == the network's ObjectID length.
  RangeFrontEnd(fissione::FissioneNetwork& net,
                const kautz::PartitionTree& tree);

  /// Runs the query to completion on its own simulator
  /// (net::Transport::run_sync).
  RangeQueryResult run(const Spec& spec, fissione::PeerId issuer,
                       const ObjectFilter& matches) const;

  /// Event-driven variant on a caller-owned simulator: the query's messages
  /// share the transport queues with every other flow on `sim`, obey the
  /// installed flow-control policy (partial answers carry the coverage
  /// fraction), and `done` fires when the last branch lands. See
  /// FrtSearch::run_async.
  void run_async(sim::Simulator& sim, const Spec& spec,
                 fissione::PeerId issuer, const ObjectFilter& matches,
                 std::function<void(RangeQueryResult)> done) const;

  fissione::FissioneNetwork& net_;  ///< mutable only for the queueing transport path
  kautz::PartitionTree tree_;  // by value: small and immutable

 private:
  replica::ReplicaSet* replicas_ = nullptr;
  rebalance::Rebalancer* rebalancer_ = nullptr;
};

}  // namespace armada::core
