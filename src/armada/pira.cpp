#include "armada/pira.h"

#include <utility>

#include "util/check.h"

namespace armada::core {

using fissione::PeerId;

Pira::Pira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree)
    : RangeFrontEnd(net, tree) {
  ARMADA_CHECK(tree_.num_attributes() == 1);
}

RangeQueryResult Pira::query(PeerId issuer, double lo, double hi,
                             const ObjectFilter& matches) const {
  const kautz::Interval bounds{lo, hi};
  return run({"pira", tree_.region_for(lo, hi), {&bounds, 1}}, issuer,
             matches);
}

void Pira::query_async(sim::Simulator& sim, PeerId issuer, double lo,
                       double hi, const ObjectFilter& matches,
                       std::function<void(RangeQueryResult)> done) const {
  const kautz::Interval bounds{lo, hi};
  run_async(sim, {"pira", tree_.region_for(lo, hi), {&bounds, 1}}, issuer,
            matches, std::move(done));
}

std::vector<PeerId> Pira::expected_destinations(
    const kautz::KautzRegion& region) const {
  std::vector<PeerId> out;
  for (PeerId p : net_.alive_peers()) {
    if (region.intersects_prefix(net_.peer(p).peer_id)) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace armada::core
