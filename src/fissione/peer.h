// Per-peer view: exactly what a real FISSIONE node would hold locally.
#pragma once

#include <span>
#include <vector>

#include "fissione/types.h"
#include "kautz/kautz_string.h"

namespace armada::fissione {

/// Read-only view of one FISSIONE peer's state. The network keeps each
/// peer's PeerID, liveness, out-list and store reference in one 64-byte
/// record, its in-list in a cold column and its objects in a shared arena
/// (see FissioneNetwork); this view is assembled on access for callers
/// that want the whole peer. Code that reads one field of many peers reads
/// it directly (FissioneNetwork::peer_id, out_neighbors, store_of).
///
/// PeerIDs are variable-length base-2 Kautz strings; the peer owns every
/// ObjectID it prefixes. Out-neighbors have PeerIDs of the form
/// u2...ub q1...qm (0 <= m <= 2) for U = u1...ub (paper §3) and are kept
/// sorted by PeerID — the order the forward routing tree relies on
/// (paper §4.2, FRT rule 3).
///
/// The spans point into the network's records and arena: they are valid
/// until the next membership or publish operation, like iterators into a
/// container.
struct Peer {
  const kautz::KautzString& peer_id;
  std::span<const PeerId> out_neighbors;
  std::span<const PeerId> in_neighbors;
  std::span<const StoredObject> store;
};

/// What a query's destination scan iterates: one or more contiguous runs of
/// stored objects — a peer's native store plus, when key ranges have been
/// migrated by the rebalancer, owner-side slices of delegation contents (or
/// just one hosted slice, at the host). The runs borrow the network's
/// storage and stay valid until the next membership, publish, or delegation
/// operation, like the spans in Peer.
///
/// Without any active delegations this is exactly one span and never
/// allocates, so the undelegated query path keeps its cost and behavior.
struct StoreView {
  std::span<const StoredObject> native;
  std::vector<std::span<const StoredObject>> extra;

  StoreView() = default;
  explicit StoreView(std::span<const StoredObject> run) : native(run) {}

  std::size_t size() const {
    std::size_t n = native.size();
    for (const auto& run : extra) {
      n += run.size();
    }
    return n;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const StoredObject& obj : native) {
      fn(obj);
    }
    for (const auto& run : extra) {
      for (const StoredObject& obj : run) {
        fn(obj);
      }
    }
  }
};

}  // namespace armada::fissione
