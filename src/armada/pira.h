// PIRA — the PrunIng Routing Algorithm for single-attribute range queries
// (paper §4.2).
//
// A query [lo, hi] maps through Single_hash to the Kautz region
// <LowT, HighT>; interval preservation guarantees the matching objects live
// exactly on the peers in charge of that region. PIRA splits the region into
// at most three common-prefix subregions and runs the FRT pruning search on
// each, reaching every destination exactly once within |PeerID(issuer)| hops
// (see RangeFrontEnd, which runs the search).
#pragma once

#include <functional>
#include <vector>

#include "armada/range_front_end.h"
#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/partition_tree.h"

namespace armada::core {

class Pira : public RangeFrontEnd {
 public:
  /// `tree` must be single-attribute with k == net ObjectID length.
  Pira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree);

  /// Value-level query [lo, hi] (inclusive), run to completion on its own
  /// simulator (net::Transport::run_sync).
  RangeQueryResult query(fissione::PeerId issuer, double lo, double hi,
                         const ObjectFilter& matches) const;

  /// Event-driven variant on a caller-owned simulator; see
  /// RangeFrontEnd::run_async.
  void query_async(sim::Simulator& sim, fissione::PeerId issuer, double lo,
                   double hi, const ObjectFilter& matches,
                   std::function<void(RangeQueryResult)> done) const;

  /// Ground truth for tests: peers in charge of the region, i.e. peers whose
  /// PeerID prefixes some string of the region.
  std::vector<fissione::PeerId> expected_destinations(
      const kautz::KautzRegion& region) const;
};

}  // namespace armada::core
