// Explicit forward routing tree (FRT) model (paper §4.2, Figure 4).
//
// The FRT of peer P = u1...ub has b+1 levels: level i < b holds every peer
// whose PeerID starts with the length-(b-i) suffix of P, level b holds every
// peer whose PeerID does not start with ub. Children of a node are its
// FISSIONE out-neighbors sorted by PeerID. PIRA never materializes this
// tree; this model exists so tests can check the paper's structural claims
// (level membership, height = |PeerID|, destination level b-f).
#pragma once

#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_region.h"

namespace armada::core {

class ForwardRoutingTree {
 public:
  ForwardRoutingTree(const fissione::FissioneNetwork& net,
                     fissione::PeerId root);

  fissione::PeerId root() const { return root_; }
  /// Height b = |PeerID(root)|; the tree has height()+1 levels.
  std::size_t height() const { return levels_.size() - 1; }
  /// Peers at level i (see class comment).
  const std::vector<fissione::PeerId>& level(std::size_t i) const;

  /// The level where every destination of a common-prefix region lives:
  /// b - |ComS| (paper §4.2).
  std::size_t destination_level(const kautz::KautzRegion& region) const;

 private:
  const fissione::FissioneNetwork& net_;
  fissione::PeerId root_;
  std::vector<std::vector<fissione::PeerId>> levels_;
};

}  // namespace armada::core
