// run_replicated_query: per-class orchestration of a range query over the
// replica subsystem (src/replica/), shared by PIRA and MIRA.
//
// Each search class first offers itself to the ReplicaSet — a cached
// result at the issuer, a cache entry on the walk toward the cheapest live
// replica holder, or the holder's snapshot scan — and falls back to its
// own FRT pruning search otherwise. Per-class fragments fan into one
// RangeQueryResult with the concurrent-composition algebra (messages sum,
// delay/latency max, coverage min across branches — conservative where the
// combined search computes the exact shed fraction).
//
// Full FRT class answers (coverage == 1) are offered back to the issuer's
// result cache, so repeat queries short-circuit even for classes that were
// never replicated. This path is only taken with an *enabled* config; the
// engines keep their pre-existing combined search bitwise otherwise.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "armada/frt_search.h"
#include "armada/range_query.h"
#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "replica/replica_set.h"

namespace armada::core {

/// One search class with its region identity and cache key.
struct ReplicatedClass {
  kautz::KautzRegion subregion;
  FrtSearchClass frt;
  std::string cache_tag;
};

void run_replicated_query(
    replica::ReplicaSet& replicas, sim::Simulator& sim,
    fissione::FissioneNetwork& net, fissione::PeerId issuer,
    std::vector<ReplicatedClass> classes,
    replica::ReplicaSet::ObjectFilter replica_filter,
    FrtSearch::DestinationScan on_destination,
    std::function<void(RangeQueryResult)> done);

}  // namespace armada::core
