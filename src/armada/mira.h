// MIRA — multiple-attribute range queries over the FRT (paper §5).
//
// Multiple_hash is partial-order preserving, so every leaf whose subspace
// meets the query box lies inside the bounding region
// <Multiple_hash(lower corner), Multiple_hash(upper corner)>, but that
// region may also contain non-matching leaves. MIRA therefore prunes the
// FRT search geometrically: a branch stays alive iff the partition-tree
// subspace of its aligned label still intersects the real query box. Delay
// is bounded by |PeerID(issuer)| exactly as in PIRA (see RangeFrontEnd,
// which runs the search).
#pragma once

#include <functional>
#include <vector>

#include "armada/range_front_end.h"
#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"

namespace armada::core {

class Mira : public RangeFrontEnd {
 public:
  /// `tree` is the multi-attribute naming tree (k == net ObjectID length).
  Mira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree);

  /// Query box: one closed interval per attribute. Runs to completion on
  /// its own simulator (net::Transport::run_sync).
  RangeQueryResult query(fissione::PeerId issuer, const kautz::Box& box,
                         const ObjectFilter& matches) const;

  /// Event-driven variant on a caller-owned simulator; see
  /// RangeFrontEnd::run_async.
  void query_async(sim::Simulator& sim, fissione::PeerId issuer,
                   const kautz::Box& box, const ObjectFilter& matches,
                   std::function<void(RangeQueryResult)> done) const;

  /// Ground truth for tests: peers whose zone subspace intersects the box.
  std::vector<fissione::PeerId> expected_destinations(
      const kautz::Box& box) const;
};

}  // namespace armada::core
