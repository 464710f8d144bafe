#include "armada/mira.h"

#include <utility>

namespace armada::core {

using fissione::PeerId;
using kautz::Box;

Mira::Mira(fissione::FissioneNetwork& net, const kautz::PartitionTree& tree)
    : RangeFrontEnd(net, tree) {}

RangeQueryResult Mira::query(PeerId issuer, const Box& box,
                             const ObjectFilter& matches) const {
  return run({"mira", tree_.bounding_region(box), box, &box}, issuer,
             matches);
}

void Mira::query_async(sim::Simulator& sim, PeerId issuer, const Box& box,
                       const ObjectFilter& matches,
                       std::function<void(RangeQueryResult)> done) const {
  run_async(sim, {"mira", tree_.bounding_region(box), box, &box}, issuer,
            matches, std::move(done));
}

std::vector<PeerId> Mira::expected_destinations(const Box& box) const {
  std::vector<PeerId> out;
  for (PeerId p : net_.alive_peers()) {
    if (tree_.box_intersects(net_.peer(p).peer_id, box)) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace armada::core
