#include "support/frt.h"

#include <algorithm>

#include "armada/frt_search.h"
#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
using kautz::KautzString;

ForwardRoutingTree::ForwardRoutingTree(const fissione::FissioneNetwork& net,
                                       PeerId root)
    : net_(net), root_(root) {
  const KautzString& id = net_.peer(root).peer_id;
  const std::size_t b = id.length();
  levels_.resize(b + 1);
  // Level i < b: peers whose PeerID starts with the length-(b-i) suffix.
  for (std::size_t i = 0; i < b; ++i) {
    levels_[i] = net_.cover_of_prefix(id.suffix(b - i));
  }
  // Level b: peers whose PeerID does not start with ub.
  for (std::uint8_t c = 0; c <= kautz::kBase; ++c) {
    if (c == id.back()) {
      continue;
    }
    KautzString prefix;
    prefix.push_back(c);
    for (PeerId p : net_.cover_of_prefix(prefix)) {
      levels_[b].push_back(p);
    }
  }
  for (auto& level : levels_) {
    std::sort(level.begin(), level.end(),
              [&](PeerId a, PeerId c) {
                return net_.peer(a).peer_id < net_.peer(c).peer_id;
              });
  }
}

const std::vector<PeerId>& ForwardRoutingTree::level(std::size_t i) const {
  ARMADA_CHECK(i < levels_.size());
  return levels_[i];
}

std::size_t ForwardRoutingTree::destination_level(
    const kautz::KautzRegion& region) const {
  const KautzString com_t = region.common_prefix();
  ARMADA_CHECK_MSG(!com_t.empty(),
                   "destination level requires a common-prefix region");
  const std::size_t f =
      FrtSearch::start_alignment(net_.peer(root_).peer_id, com_t);
  return height() - f;
}

}  // namespace armada::core
