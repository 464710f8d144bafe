// Shared FISSIONE types.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "kautz/kautz_string.h"
#include "sim/metrics.h"

namespace armada::fissione {

/// Dense peer handle; stable for the lifetime of a peer, reused only after
/// the peer has left the overlay.
using PeerId = std::uint32_t;

inline constexpr PeerId kNoPeer = static_cast<PeerId>(-1);

/// An application object published into the DHT. `payload` is an opaque
/// application handle (Armada uses it to index its object table).
///
/// Ordered by (object_id, payload): the canonical order of delegation
/// contents and replica snapshots, so prefix-restricted subsets stay
/// contiguous and content equality is independent of collection order.
struct StoredObject {
  kautz::KautzString object_id;
  std::uint64_t payload = 0;

  friend bool operator==(const StoredObject&, const StoredObject&) = default;
  friend auto operator<=>(const StoredObject&, const StoredObject&) = default;
};

/// Per-peer count of query-plane messages served (received), recorded by
/// the search layers through FissioneNetwork::record_service. Load-balance
/// benches read it to locate hot peers under skewed query workloads.
///
/// PeerIds are dense, so this is a plain vector indexed by PeerId — one
/// predictable store on the query hot path instead of an unordered_map
/// probe — wrapped in the map-like surface (operator[], find/end iteration
/// over recorded peers) the benches read. Iteration order is ascending
/// PeerId, deterministic by construction.
class ServiceLoadMap {
 public:
  using value_type = std::pair<PeerId, std::uint64_t>;

  std::uint64_t& operator[](PeerId p) {
    if (p >= counts_.size()) {
      counts_.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    return counts_[p];
  }

  /// Forward iterator over peers with a nonzero count (entries are only
  /// ever created by incrementing, so zero means "never recorded").
  class const_iterator {
   public:
    const_iterator(const std::vector<std::uint64_t>* counts, std::size_t i)
        : counts_(counts), i_(i) {
      skip_zeros();
    }
    const value_type& operator*() const {
      cur_ = {static_cast<PeerId>(i_), (*counts_)[i_]};
      return cur_;
    }
    const value_type* operator->() const { return &operator*(); }
    const_iterator& operator++() {
      ++i_;
      skip_zeros();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    void skip_zeros() {
      while (i_ < counts_->size() && (*counts_)[i_] == 0) {
        ++i_;
      }
    }

    const std::vector<std::uint64_t>* counts_;
    std::size_t i_;
    mutable value_type cur_{};
  };

  const_iterator begin() const { return {&counts_, 0}; }
  const_iterator end() const { return {&counts_, counts_.size()}; }
  const_iterator find(PeerId p) const {
    if (p < counts_.size() && counts_[p] != 0) {
      return {&counts_, p};
    }
    return end();
  }

  /// Cumulative count for one peer (0 when never recorded).
  std::uint64_t count(PeerId p) const {
    return p < counts_.size() ? counts_[p] : 0;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (std::uint64_t c : counts_) {
      n += c != 0 ? 1 : 0;
    }
    return n;
  }
  bool empty() const { return size() == 0; }
  void clear() { counts_.clear(); }

  /// Forget one peer's count. PeerIds are recycled after a departure, so
  /// without this a joiner inheriting a crashed peer's id would also
  /// inherit its service history — FissioneNetwork calls it whenever an id
  /// is released while a map is attached.
  void reset(PeerId p) {
    if (p < counts_.size()) {
      counts_[p] = 0;
    }
  }

 private:
  std::vector<std::uint64_t> counts_;
};

/// Result of routing an exact-match request.
struct RouteResult {
  PeerId owner = kNoPeer;
  std::uint32_t hops = 0;
  /// Sum of per-link latencies along `path` under the network's latency
  /// model; equals `hops` under the default ConstantHop model.
  double latency = 0.0;
  std::vector<PeerId> path;  ///< includes source and owner

  /// The walk in the shared query-stats currency (messages == delay ==
  /// hops, transport-priced latency) — what layers composing FISSIONE
  /// routing with other schemes consume.
  sim::QueryStats stats() const {
    sim::QueryStats s;
    s.messages = hops;
    s.delay = hops;
    s.latency = latency;
    return s;
  }
};

}  // namespace armada::fissione
