// The Kautz prefix tree: ground truth for FISSIONE zone ownership.
//
// FISSIONE peers partition the Kautz namespace by PeerID prefix: every
// sufficiently long Kautz string has exactly one peer whose PeerID prefixes
// it. That partition is exactly a tree in which the root has base+1 children
// (first symbols 0..base), every other internal node has `base` children
// (symbols differing from the in-edge), and leaves are peers. Splitting a
// leaf is the paper's "fission" (a peer join); merging a leaf pair is
// "fusion" (a departure). A real deployment maintains this structure
// implicitly through the peers' neighbor tables; the simulator keeps it
// explicit and derives/validates neighbor tables from it.
#pragma once

#include <memory>
#include <vector>

#include "fissione/types.h"
#include "kautz/kautz_string.h"

namespace armada::fissione {

class KautzTree {
 public:
  /// Creates the root with base+1 leaf children hosting `first_peers`
  /// (PeerIDs "0", "1", ..., in order). Requires first_peers.size() == base+1.
  KautzTree(std::uint8_t base, const std::vector<PeerId>& first_peers);

  std::uint8_t base() const { return base_; }
  std::size_t num_leaves() const { return num_leaves_; }

  /// The unique peer whose PeerID prefixes `s`. Requires s longer than the
  /// deepest leaf on its path.
  PeerId owner_of(const kautz::KautzString& s) const;

  /// True iff the tree hosts this peer.
  bool hosts(PeerId peer) const;

  kautz::KautzString label_of(PeerId peer) const;
  std::size_t depth_of(PeerId peer) const;

  /// Split the leaf of `peer` into two children; `peer` keeps the
  /// lexicographically smaller child, `joiner` takes the larger.
  void split(PeerId peer, PeerId joiner);

  /// True iff `peer`'s parent is a binary node whose children are both
  /// leaves (a mergeable pair).
  bool in_leaf_pair(PeerId peer) const;

  /// The other leaf of `peer`'s leaf pair. Requires in_leaf_pair(peer).
  PeerId pair_sibling(PeerId peer) const;

  /// Remove `leaving` and let its pair sibling `survivor` adopt the parent
  /// zone. Requires in_leaf_pair(leaving) and survivor == pair_sibling.
  void merge_pair(PeerId leaving, PeerId survivor);

  /// A leaf of maximum depth; among several, the lowest PeerId. Scans
  /// every hosted peer; only departures call it.
  PeerId deepest_leaf() const;

  /// Re-home the zone of `old_peer` to `new_peer` (departure takeover).
  void replace_leaf_peer(PeerId old_peer, PeerId new_peer);

  /// All leaf peers covering strings with the given prefix: the leaves below
  /// the prefix node, or the single leaf found on the path. Empty prefix
  /// yields every leaf.
  std::vector<PeerId> cover_of_prefix(const kautz::KautzString& prefix) const;

  /// Structural self-check: full fanout at internal nodes, leaf/peer
  /// bijection, label consistency. Throws CheckError on violation.
  void check_structure() const;

 private:
  struct Node {
    Node* parent = nullptr;
    std::uint8_t edge = 0;  ///< symbol on the edge from parent (root: unused)
    std::uint16_t depth = 0;
    PeerId peer = kNoPeer;  ///< valid iff leaf
    std::vector<std::unique_ptr<Node>> children;  ///< empty iff leaf

    bool is_leaf() const { return children.empty(); }
  };

  Node* node_of(PeerId peer) const;
  // Child of `node` along `symbol`; nullptr when out of range.
  Node* child_by_symbol(const Node* node, std::uint8_t symbol) const;
  void collect_leaves(const Node* node, std::vector<PeerId>& out) const;
  void set_leaf_peer(Node* node, PeerId peer);
  void check_node(const Node* node, const kautz::KautzString& label,
                  std::size_t& leaves_seen) const;

  std::uint8_t base_;
  std::unique_ptr<Node> root_;
  std::vector<Node*> peer_nodes_;  ///< indexed by PeerId; nullptr when absent
  std::size_t num_leaves_ = 0;
};

}  // namespace armada::fissione
