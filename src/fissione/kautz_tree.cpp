#include "fissione/kautz_tree.h"

#include <algorithm>

#include "kautz/kautz_space.h"
#include "util/check.h"

namespace armada::fissione {

using kautz::kBase;
using kautz::KautzString;

KautzTree::KautzTree(const std::vector<PeerId>& first_peers)
    : root_(std::make_unique<Node>()) {
  ARMADA_CHECK(first_peers.size() == kBase + 1u);
  root_->children.resize(kBase + 1u);
  for (std::uint8_t c = 0; c <= kBase; ++c) {
    auto child = std::make_unique<Node>();
    child->parent = root_.get();
    child->edge = c;
    child->depth = 1;
    root_->children[c] = std::move(child);
    set_leaf_peer(root_->children[c].get(), first_peers[c]);
  }
  num_leaves_ = kBase + 1u;
}

KautzTree::Node* KautzTree::child_by_symbol(const Node* node,
                                            std::uint8_t symbol) const {
  if (node == root_.get()) {
    ARMADA_CHECK(symbol <= kBase);
    return node->children[symbol].get();
  }
  ARMADA_CHECK(symbol != node->edge && symbol <= kBase);
  return node->children[kautz::symbol_index(symbol, node->edge)].get();
}

PeerId KautzTree::owner_of(const KautzString& s) const {
  const Node* node = root_.get();
  std::size_t i = 0;
  while (!node->is_leaf()) {
    ARMADA_CHECK_MSG(i < s.length(),
                     "string " << s.to_string() << " too short to resolve");
    node = child_by_symbol(node, s.digit(i));
    ++i;
  }
  return node->peer;
}

bool KautzTree::hosts(PeerId peer) const { return node_of(peer) != nullptr; }

KautzTree::Node* KautzTree::node_of(PeerId peer) const {
  if (peer >= peer_nodes_.size()) {
    return nullptr;
  }
  return peer_nodes_[peer];
}

KautzString KautzTree::label_of(PeerId peer) const {
  const Node* node = node_of(peer);
  ARMADA_CHECK_MSG(node != nullptr, "unknown peer " << peer);
  std::vector<std::uint8_t> digits(node->depth);
  for (const Node* n = node; n->parent != nullptr; n = n->parent) {
    digits[n->depth - 1] = n->edge;
  }
  return KautzString(digits);
}

std::size_t KautzTree::depth_of(PeerId peer) const {
  const Node* node = node_of(peer);
  ARMADA_CHECK(node != nullptr);
  return node->depth;
}

void KautzTree::set_leaf_peer(Node* node, PeerId peer) {
  ARMADA_CHECK(node->is_leaf());
  node->peer = peer;
  if (peer >= peer_nodes_.size()) {
    peer_nodes_.resize(peer + 1u, nullptr);
  }
  ARMADA_CHECK_MSG(peer_nodes_[peer] == nullptr,
                   "peer " << peer << " already hosted");
  peer_nodes_[peer] = node;
}

void KautzTree::split(PeerId peer, PeerId joiner) {
  Node* node = node_of(peer);
  ARMADA_CHECK(node != nullptr && node->is_leaf());
  ARMADA_CHECK(node->parent != nullptr);  // bootstrap creates depth-1 leaves
  peer_nodes_[peer] = nullptr;
  node->peer = kNoPeer;

  node->children.resize(kBase);
  std::size_t idx = 0;
  for (std::uint8_t c = 0; c <= kBase; ++c) {
    if (c == node->edge) {
      continue;
    }
    auto child = std::make_unique<Node>();
    child->parent = node;
    child->edge = c;
    child->depth = static_cast<std::uint16_t>(node->depth + 1);
    node->children[idx++] = std::move(child);
  }
  // Children are created in increasing symbol order: the original peer takes
  // the smaller label, the joiner the larger.
  set_leaf_peer(node->children[0].get(), peer);
  set_leaf_peer(node->children[1].get(), joiner);
  ++num_leaves_;
}

bool KautzTree::in_leaf_pair(PeerId peer) const {
  const Node* node = node_of(peer);
  ARMADA_CHECK(node != nullptr);
  const Node* parent = node->parent;
  if (parent == nullptr || parent == root_.get()) {
    return false;
  }
  return std::all_of(parent->children.begin(), parent->children.end(),
                     [](const auto& c) { return c->is_leaf(); });
}

PeerId KautzTree::pair_sibling(PeerId peer) const {
  ARMADA_CHECK(in_leaf_pair(peer));
  const Node* node = node_of(peer);
  for (const auto& child : node->parent->children) {
    if (child.get() != node) {
      return child->peer;
    }
  }
  ARMADA_CHECK_MSG(false, "leaf pair without sibling");
  return kNoPeer;
}

void KautzTree::merge_pair(PeerId leaving, PeerId survivor) {
  ARMADA_CHECK(in_leaf_pair(leaving));
  ARMADA_CHECK(pair_sibling(leaving) == survivor);
  Node* node = node_of(leaving);
  Node* parent = node->parent;
  peer_nodes_[leaving] = nullptr;
  peer_nodes_[survivor] = nullptr;
  parent->children.clear();  // destroys both leaves
  parent->peer = kNoPeer;
  set_leaf_peer(parent, survivor);
  --num_leaves_;
}

PeerId KautzTree::deepest_leaf() const {
  PeerId best = kNoPeer;
  std::uint16_t best_depth = 0;
  for (const Node* node : peer_nodes_) {
    if (node != nullptr && node->depth > best_depth) {
      best_depth = node->depth;
      best = node->peer;
    }
  }
  ARMADA_CHECK(best != kNoPeer);
  return best;
}

void KautzTree::replace_leaf_peer(PeerId old_peer, PeerId new_peer) {
  Node* node = node_of(old_peer);
  ARMADA_CHECK(node != nullptr && node->is_leaf());
  peer_nodes_[old_peer] = nullptr;
  node->peer = kNoPeer;
  set_leaf_peer(node, new_peer);
}

void KautzTree::collect_leaves(const Node* node,
                               std::vector<PeerId>& out) const {
  if (node->is_leaf()) {
    out.push_back(node->peer);
    return;
  }
  for (const auto& child : node->children) {
    collect_leaves(child.get(), out);
  }
}

std::vector<PeerId> KautzTree::cover_of_prefix(
    const KautzString& prefix) const {
  const Node* node = root_.get();
  for (std::size_t i = 0; i < prefix.length(); ++i) {
    if (node->is_leaf()) {
      return {node->peer};
    }
    node = child_by_symbol(node, prefix.digit(i));
  }
  std::vector<PeerId> out;
  collect_leaves(node, out);
  return out;
}

void KautzTree::check_node(const Node* node, const KautzString& label,
                           std::size_t& leaves_seen) const {
  if (node->is_leaf()) {
    ARMADA_CHECK_MSG(node->peer != kNoPeer, "unowned leaf " << label.to_string());
    ARMADA_CHECK(node_of(node->peer) == node);
    ARMADA_CHECK(label_of(node->peer) == label);
    ++leaves_seen;
    return;
  }
  ARMADA_CHECK(node->peer == kNoPeer);
  const std::size_t expected =
      node == root_.get() ? kBase + 1u : std::size_t{kBase};
  ARMADA_CHECK_MSG(node->children.size() == expected,
                   "internal node " << label.to_string() << " has "
                                    << node->children.size() << " children");
  for (const auto& child : node->children) {
    ARMADA_CHECK(child != nullptr);
    ARMADA_CHECK(child->parent == node);
    ARMADA_CHECK(child->depth == node->depth + 1);
    KautzString child_label = label;
    child_label.push_back(child->edge);  // validates the Kautz invariant
    check_node(child.get(), child_label, leaves_seen);
  }
}

void KautzTree::check_structure() const {
  std::size_t leaves_seen = 0;
  check_node(root_.get(), KautzString{}, leaves_seen);
  ARMADA_CHECK(leaves_seen == num_leaves_);
  std::size_t hosted = 0;
  for (const Node* node : peer_nodes_) {
    if (node != nullptr) {
      ARMADA_CHECK(node->is_leaf());
      ++hosted;
    }
  }
  ARMADA_CHECK(hosted == num_leaves_);
}

}  // namespace armada::fissione
