// Chord (Stoica et al.): the O(log N)-degree DHT ring used by the Squid
// baseline and by PHT-over-Chord comparisons (paper Table 1 rows).
//
// The ring is the full 64-bit space with wrap-around; every key is owned by
// its successor node. Fingers follow the classic rule
// finger[i] = successor(key + 2^i); greedy routing forwards to the closest
// preceding finger and reaches any key in O(log N) hops.
//
// Membership: nodes join at fresh random ring positions and leave/crash with
// their keyspace absorbed by the successor. NodeIds are stable (dead ids are
// never reused); the alive set lives in a sorted ring index. Structural
// repair commutes instantly — finger entries whose owner changed are
// repointed in place — and the optional MembershipReport captures exactly
// which nodes were rewired so a timed churn driver (chord::ChurnDriver) can
// price the successor/finger repair protocol as transport deliveries.
#pragma once

#include <cstdint>
#include <vector>

#include "net/routed_overlay.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace armada::chord {

using NodeId = std::uint32_t;
using Key = std::uint64_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// True iff x lies in the half-open ring interval (a, b] (wrap-aware);
/// the whole ring when a == b.
bool in_ring_range(Key a, Key b, Key x);

/// Cost of one iterative finger-routing walk, in the shared query-stats
/// currency: messages == delay == hop count, latency is the sum of link
/// latencies along the walk under the network's latency model.
struct ChordRoute {
  NodeId owner = kNoNode;
  sim::QueryStats stats;
};

class ChordNetwork final : public overlay::RoutedOverlay {
 public:
  /// What a membership event would put on the wire (see chord::ChurnDriver):
  /// filled optionally by join/leave/crash; capturing it never changes the
  /// structural outcome or the RNG stream.
  struct MembershipReport {
    NodeId node = kNoNode;         ///< joiner, or the departed node
    NodeId successor = kNoNode;    ///< ring successor after the change
    NodeId predecessor = kNoNode;  ///< ring predecessor after the change
    /// Alive nodes (excluding `node`) with at least one repointed finger.
    std::vector<NodeId> rewired;
    /// Distinct finger targets the joiner had to look up (join only).
    std::vector<NodeId> finger_targets;
    /// Join placement lookup: the route to the joiner's successor.
    std::uint32_t placement_hops = 0;
    double placement_latency = 0.0;
  };

  /// n nodes at distinct uniform random ring positions.
  ChordNetwork(std::size_t n, std::uint64_t seed);

  /// Alive nodes.
  std::size_t num_nodes() const { return ring_.size(); }
  std::size_t overlay_size() const override { return ring_.size(); }
  /// One past the largest NodeId ever issued (dead ids included). Size
  /// NodeId-indexed tables with THIS, not num_nodes(): after churn the
  /// alive count is smaller than the id range.
  std::size_t node_id_bound() const { return keys_.size(); }
  bool is_alive(NodeId id) const {
    return id < alive_.size() && alive_[id];
  }
  Key node_key(NodeId id) const;
  NodeId successor_node(NodeId id) const;
  NodeId predecessor_node(NodeId id) const;
  /// Alive node ids in ring (key) order.
  const std::vector<NodeId>& ring() const { return ring_; }

  // --- membership -------------------------------------------------------
  /// Join at a fresh random position; returns the new node's id.
  NodeId join(MembershipReport* report = nullptr);
  /// Graceful departure: keyspace handed to the successor.
  void leave(NodeId node, MembershipReport* report = nullptr);
  /// Ungraceful failure: same structural healing, but a timed driver prices
  /// it only after a detection timeout.
  void crash(NodeId node, MembershipReport* report = nullptr);

  /// Ground-truth owner of `key` (binary search over the alive ring).
  NodeId owner_of(Key key) const;

  /// Iterative finger routing from `from` to the owner of `key`. The
  /// hot-path overload stays allocation-free; pass `path_out` (filled with
  /// source..owner) only when the walk itself is needed — e.g. the churn
  /// driver's stale-route replay.
  ChordRoute route(NodeId from, Key key) const { return route(from, key, nullptr); }
  ChordRoute route(NodeId from, Key key, std::vector<NodeId>* path_out) const;

  /// Uniformly chosen alive node.
  NodeId random_node();

  /// Finger-table correctness, ring ordering, successor consistency.
  void check_invariants() const;
  /// Average number of distinct finger targets per node (~log2 N).
  double average_degree() const;

 private:
  static constexpr std::uint32_t kFingerBits = 64;

  NodeId finger(NodeId node, std::uint32_t i) const {
    return fingers_[node * kFingerBits + i];
  }
  NodeId& finger(NodeId node, std::uint32_t i) {
    return fingers_[node * kFingerBits + i];
  }

  NodeId closest_preceding_finger(NodeId node, Key key) const;
  /// Remove `node` from the ring, repointing fingers to its successor.
  void remove_node(NodeId node, MembershipReport* report);
  /// Recompute ring_pos_ for ring_ entries from `from` onward.
  void reindex_ring(std::size_t from);

  Rng rng_;
  std::vector<Key> keys_;                     // by NodeId; dead ids retained
  std::vector<bool> alive_;                   // by NodeId
  std::vector<NodeId> ring_;                  // alive ids, sorted by key
  std::vector<std::size_t> ring_pos_;         // by NodeId, index into ring_
  /// Finger tables, flat: entry i of node n at n * kFingerBits + i. One
  /// contiguous block instead of one heap vector per node, so greedy
  /// routing's top-down finger scan stays on one cache stream.
  std::vector<NodeId> fingers_;
};

}  // namespace armada::chord
