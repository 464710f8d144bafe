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
/// probe — wrapped in a map-like surface (find/end iteration over recorded
/// peers) the benches read. Iteration order is ascending PeerId,
/// deterministic by construction.
///
/// The map also lists the peers whose count changed — added to, reset or
/// cleared — since the last drain(), in first-touch order, so the
/// rebalancer's sweep costs the peers a query touched rather than every
/// peer. The touched flag is the count word's top bit, in the cache line
/// the increment loads anyway.
class ServiceLoadMap {
 public:
  using value_type = std::pair<PeerId, std::uint64_t>;

  /// Add `n` to one peer's count.
  void add(PeerId p, std::uint64_t n = 1) {
    if (p >= counts_.size()) {
      counts_.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    touch(p);
    counts_[p] += n;
  }

  /// Forward iterator over peers with a nonzero count (zero means nothing
  /// recorded since the entry was created, reset or cleared).
  class const_iterator {
   public:
    const_iterator(const std::vector<std::uint64_t>* counts, std::size_t i)
        : counts_(counts), i_(i) {
      skip_zeros();
    }
    const value_type& operator*() const {
      cur_ = {static_cast<PeerId>(i_), (*counts_)[i_] & ~kTouched};
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
      while (i_ < counts_->size() && ((*counts_)[i_] & ~kTouched) == 0) {
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
    if (count(p) != 0) {
      return {&counts_, p};
    }
    return end();
  }

  /// Cumulative count for one peer (0 when never recorded).
  std::uint64_t count(PeerId p) const {
    return p < counts_.size() ? counts_[p] & ~kTouched : 0;
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (std::uint64_t c : counts_) {
      n += (c & ~kTouched) != 0 ? 1 : 0;
    }
    return n;
  }
  bool empty() const { return size() == 0; }
  void clear() {
    for (std::size_t p = 0; p < counts_.size(); ++p) {
      reset(static_cast<PeerId>(p));
    }
  }

  /// Forget one peer's count. PeerIds are recycled after a departure, so
  /// without this a joiner inheriting a crashed peer's id would also
  /// inherit its service history — FissioneNetwork calls it whenever an id
  /// is released while a map is attached.
  void reset(PeerId p) {
    if (count(p) != 0) {
      touch(p);
      counts_[p] = kTouched;
    }
  }

  /// Hand every peer touched since the last drain to `fn`, in first-touch
  /// order, then empty the list.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (PeerId p : touched_) {
      counts_[p] &= ~kTouched;
      fn(p);
    }
    touched_.clear();
    ++drains_;
  }
  /// Drains so far: a reader that last drained at `drains()` == d and finds
  /// another value knows someone else emptied the list meanwhile.
  std::uint64_t drains() const { return drains_; }

 private:
  static constexpr std::uint64_t kTouched = std::uint64_t{1} << 63;

  void touch(PeerId p) {
    if ((counts_[p] & kTouched) == 0) {
      counts_[p] |= kTouched;
      touched_.push_back(p);
    }
  }

  std::vector<std::uint64_t> counts_;  ///< count | kTouched
  std::vector<PeerId> touched_;
  std::uint64_t drains_ = 0;
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
