#include "chord/chord.h"

#include <algorithm>
#include <set>

#include "util/check.h"

namespace armada::chord {

bool in_ring_range(Key a, Key b, Key x) {
  if (a == b) {
    return true;  // the interval covers the whole ring
  }
  if (a < b) {
    return x > a && x <= b;
  }
  return x > a || x <= b;  // wraps
}

ChordNetwork::ChordNetwork(std::size_t n, std::uint64_t seed) : rng_(seed) {
  ARMADA_CHECK(n >= 1);
  std::set<Key> unique;
  while (unique.size() < n) {
    unique.insert(rng_.engine()());
  }
  keys_.assign(unique.begin(), unique.end());
  alive_.assign(n, true);
  ring_.resize(n);
  ring_pos_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    ring_[id] = id;  // keys_ is sorted, so id order is ring order
    ring_pos_[id] = id;
  }

  fingers_.resize(n * kFingerBits);
  for (NodeId id = 0; id < n; ++id) {
    for (std::uint32_t i = 0; i < kFingerBits; ++i) {
      finger(id, i) = owner_of(keys_[id] + (1ull << i));
    }
  }
}

Key ChordNetwork::node_key(NodeId id) const {
  ARMADA_CHECK(id < keys_.size());
  return keys_[id];
}

NodeId ChordNetwork::successor_node(NodeId id) const {
  ARMADA_CHECK(is_alive(id));
  return ring_[(ring_pos_[id] + 1) % ring_.size()];
}

NodeId ChordNetwork::predecessor_node(NodeId id) const {
  ARMADA_CHECK(is_alive(id));
  return ring_[(ring_pos_[id] + ring_.size() - 1) % ring_.size()];
}

NodeId ChordNetwork::owner_of(Key key) const {
  // First alive ring position with key >= `key`, wrapping to the smallest.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [this](NodeId id, Key k) { return keys_[id] < k; });
  if (it == ring_.end()) {
    return ring_.front();
  }
  return *it;
}

void ChordNetwork::reindex_ring(std::size_t from) {
  for (std::size_t i = from; i < ring_.size(); ++i) {
    ring_pos_[ring_[i]] = i;
  }
}

NodeId ChordNetwork::join(MembershipReport* report) {
  // Fresh unique position (checked against every key ever used, so a dead
  // node's position is never resurrected).
  Key key;
  do {
    key = rng_.engine()();
  } while (std::find(keys_.begin(), keys_.end(), key) != keys_.end());

  // Placement lookup: route from a random alive node to the key's current
  // owner — the joiner's successor-to-be. Priced whether or not a report is
  // captured, so reporting never skews the RNG stream.
  std::uint32_t placement_hops = 0;
  double placement_latency = 0.0;
  if (ring_.size() >= 2) {
    const ChordRoute placement = route(random_node(), key);
    placement_hops = static_cast<std::uint32_t>(placement.stats.messages);
    placement_latency = placement.stats.latency;
  }

  const NodeId id = static_cast<NodeId>(keys_.size());
  keys_.push_back(key);
  alive_.push_back(true);
  fingers_.resize(fingers_.size() + kFingerBits, kNoNode);
  ring_pos_.push_back(0);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key,
      [this](NodeId n, Key k) { return keys_[n] < k; });
  const std::size_t pos = static_cast<std::size_t>(it - ring_.begin());
  ring_.insert(ring_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  reindex_ring(pos);

  const NodeId succ = successor_node(id);
  const NodeId pred = predecessor_node(id);

  // Existing fingers whose start now falls in (pred, id] repoint from the
  // old owner (the successor) to the joiner.
  std::vector<NodeId> rewired;
  if (ring_.size() > 1) {
    for (NodeId n : ring_) {
      if (n == id) {
        continue;
      }
      bool changed = false;
      for (std::uint32_t i = 0; i < kFingerBits; ++i) {
        const Key start = keys_[n] + (1ull << i);
        if (finger(n, i) != id && in_ring_range(keys_[pred], key, start)) {
          finger(n, i) = id;
          changed = true;
        }
      }
      if (changed) {
        rewired.push_back(n);
      }
    }
  }

  // The joiner builds its own table: one lookup per entry, landing on a
  // handful of distinct targets.
  std::set<NodeId> targets;
  for (std::uint32_t i = 0; i < kFingerBits; ++i) {
    finger(id, i) = owner_of(keys_[id] + (1ull << i));
    if (finger(id, i) != id) {
      targets.insert(finger(id, i));
    }
  }

  if (report != nullptr) {
    report->node = id;
    report->successor = succ;
    report->predecessor = pred;
    report->rewired = std::move(rewired);
    report->finger_targets.assign(targets.begin(), targets.end());
    report->placement_hops = placement_hops;
    report->placement_latency = placement_latency;
  }
  return id;
}

void ChordNetwork::remove_node(NodeId node, MembershipReport* report) {
  ARMADA_CHECK(is_alive(node));
  ARMADA_CHECK_MSG(ring_.size() > 2, "cannot drop below a 3-node ring");

  const NodeId succ = successor_node(node);
  const NodeId pred = predecessor_node(node);
  const std::size_t pos = ring_pos_[node];
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(pos));
  reindex_ring(pos);
  alive_[node] = false;

  // The departed node's interval is absorbed by its successor: every finger
  // that pointed at it repoints there.
  std::vector<NodeId> rewired;
  for (NodeId n : ring_) {
    bool changed = false;
    for (std::uint32_t i = 0; i < kFingerBits; ++i) {
      if (finger(n, i) == node) {
        finger(n, i) = succ;
        changed = true;
      }
    }
    if (changed) {
      rewired.push_back(n);
    }
  }
  std::fill_n(fingers_.begin() + node * kFingerBits, kFingerBits, kNoNode);

  if (report != nullptr) {
    report->node = node;
    report->successor = succ;
    report->predecessor = pred;
    report->rewired = std::move(rewired);
  }
}

void ChordNetwork::leave(NodeId node, MembershipReport* report) {
  remove_node(node, report);
}

void ChordNetwork::crash(NodeId node, MembershipReport* report) {
  remove_node(node, report);
}

NodeId ChordNetwork::closest_preceding_finger(NodeId node, Key key) const {
  const Key from = keys_[node];
  for (std::uint32_t i = kFingerBits; i > 0; --i) {
    const NodeId f = finger(node, i - 1);
    const Key fk = keys_[f];
    if (f != node && in_ring_range(from, key, fk) && fk != key) {
      return f;
    }
  }
  return node;
}

ChordRoute ChordNetwork::route(NodeId from, Key key,
                               std::vector<NodeId>* path_out) const {
  ARMADA_CHECK(is_alive(from));
  ChordRoute r;
  NodeId cur = from;
  auto record = [path_out](NodeId n) {
    if (path_out != nullptr) {
      path_out->push_back(n);
    }
  };
  if (path_out != nullptr) {
    path_out->clear();
  }
  record(cur);
  while (true) {
    if (keys_[cur] == key) {
      break;  // landed exactly on the owner
    }
    const NodeId succ = successor_node(cur);
    if (in_ring_range(keys_[cur], keys_[succ], key)) {
      overlay::step(r.stats, transport_, cur, succ);
      cur = succ;  // final hop to the owner
      record(cur);
      break;
    }
    const NodeId next = closest_preceding_finger(cur, key);
    ARMADA_CHECK_MSG(next != cur, "finger routing stuck");
    overlay::step(r.stats, transport_, cur, next);
    cur = next;
    record(cur);
    ARMADA_CHECK_MSG(r.stats.messages <= ring_.size(),
                     "routing loop suspected");
  }
  r.owner = cur;
  ARMADA_CHECK(cur == owner_of(key));
  return r;
}

NodeId ChordNetwork::random_node() {
  return ring_[rng_.next_index(ring_.size())];
}

void ChordNetwork::check_invariants() const {
  ARMADA_CHECK(!ring_.empty());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ARMADA_CHECK(is_alive(ring_[i]));
    ARMADA_CHECK(ring_pos_[ring_[i]] == i);
    if (i > 0) {
      ARMADA_CHECK(keys_[ring_[i - 1]] < keys_[ring_[i]]);
    }
  }
  for (NodeId id : ring_) {
    for (std::uint32_t i = 0; i < kFingerBits; ++i) {
      ARMADA_CHECK_MSG(finger(id, i) == owner_of(keys_[id] + (1ull << i)),
                       "stale finger " << i << " at node " << id);
    }
  }
}

double ChordNetwork::average_degree() const {
  std::size_t total = 0;
  for (NodeId id : ring_) {
    const auto first = fingers_.begin() + id * kFingerBits;
    std::set<NodeId> distinct(first, first + kFingerBits);
    total += distinct.size();
  }
  return static_cast<double>(total) / static_cast<double>(ring_.size());
}

}  // namespace armada::chord
