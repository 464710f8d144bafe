// FISSIONE: a constant-degree DHT on an approximate Kautz graph (paper §3).
//
// Peers carry variable-length base-2 Kautz PeerIDs forming a prefix
// partition of the namespace; the out-neighbors of U = u1...ub are the peers
// whose PeerIDs have the form u2...ub q1...qm (0 <= m <= 2). The overlay
// maintains the *neighborhood invariant*: PeerID lengths of neighboring
// peers differ by at most one. Consequences (validated by tests and
// bench_fissione_props): average degree 4, maximum PeerID length < 2 log2 N,
// average < log2 N, routing delay bounded by the source PeerID length.
#pragma once

#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "fissione/kautz_tree.h"
#include "fissione/peer.h"
#include "fissione/types.h"
#include "net/routed_overlay.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/stats.h"

namespace armada::fissione {

/// Simulated FISSIONE overlay. Structural changes (join/leave/crash) keep
/// the per-peer neighbor tables exactly consistent with the zone partition,
/// mirroring the paper's self-stabilization at quiescence.
///
/// Peer state is stored struct-of-arrays: PeerIDs, liveness flags, neighbor
/// lists, and object stores each live in their own contiguous array, with
/// the variable-length lists packed into two shared arenas (ArenaPool).
/// Routing and the query layers touch only the arrays they need — IDs and
/// out-edges — so the hot path walks dense memory instead of hopping
/// between per-peer heap nodes. peer() assembles the classic record view
/// on demand.
class FissioneNetwork final : public overlay::RoutedOverlay {
 public:
  struct Config {
    std::uint8_t base = 2;
    /// Length of ObjectIDs (the paper uses k = 100; any k comfortably above
    /// the deepest PeerID behaves identically).
    std::size_t object_id_length = 48;
    /// Proximity-aware next-hop tie-breaking in exact-match routing: among
    /// the neighbor links (out or in) making maximal shift-routing progress
    /// — structurally equivalent candidates, same remaining-distance bound —
    /// prefer the lowest-latency link. Off by default: the canonical
    /// prefix-of-target next hop is used and every pre-existing figure is
    /// reproduced bit-for-bit. The delay bound hops <= |PeerID(issuer)|
    /// holds either way (progress is at least one symbol per hop).
    bool proximity_next_hop = false;
  };

  struct JoinStats {
    PeerId peer = kNoPeer;
    std::uint32_t placement_hops = 0;  ///< routing cost to find the split site
  };

  /// One migrated key range: ObjectIDs extending `range` are stored at and
  /// served by `host` instead of the range's structural owner(s) — the
  /// indirection the online rebalancer (src/rebalance/) cuts over to when a
  /// transfer lands. Hosted objects live here, outside any Peer::store, so
  /// the placement invariant (a native store holds only IDs its PeerID
  /// prefixes) is untouched. The registry is keyed by range, not by peer:
  /// owner-side churn (splits, merges, relocations) never invalidates an
  /// entry, because owners are resolved against the live tree at each use.
  struct Delegation {
    kautz::KautzString range;
    PeerId host = kNoPeer;
    /// Sorted by (object_id, payload): every prefix-restricted subset is a
    /// contiguous slice (see delegation_segment).
    std::vector<StoredObject> objects;
  };
  using DelegationMap = std::map<kautz::KautzString, Delegation>;

  /// What a membership event would put on the wire: the repair plan a timed
  /// churn driver prices through the Transport. Filled (optionally) by
  /// join/leave/crash; capturing it never changes the structural outcome or
  /// the network's RNG stream, so reporting and non-reporting call sites
  /// evolve identical overlays.
  struct MembershipReport {
    /// One batched object transfer between two peers.
    struct Handoff {
      PeerId from = kNoPeer;
      PeerId to = kNoPeer;
      std::vector<std::uint64_t> payloads;  ///< handles of the moved objects
    };

    /// Peer the repair radiates from: the joiner (join), the absorbing or
    /// relocated peer (leave/crash).
    PeerId origin = kNoPeer;
    PeerId joiner = kNoPeer;  ///< join only
    /// Alive peers whose neighbor tables were recomputed; each one owes a
    /// table-update delivery before it is fully wired again.
    std::vector<PeerId> rewired;
    std::vector<Handoff> handoffs;
    std::size_t objects_dropped = 0;  ///< crash only
    /// Join placement traffic: the exact-match route to the split region
    /// plus the local-minimum balancing walk, in hops and transport-priced
    /// latency.
    std::uint32_t placement_hops = 0;
    double placement_latency = 0.0;
  };

  FissioneNetwork(Config config, std::uint64_t seed);

  /// Convenience: build a network of `n` peers (n >= base+1).
  static FissioneNetwork build(std::size_t n, std::uint64_t seed,
                               Config config);
  static FissioneNetwork build(std::size_t n, std::uint64_t seed);

  /// build(), minus the routed placement walk: the join site is located by
  /// direct tree descent plus the same local-minimum walk, consuming the
  /// exact RNG draws of build() — the resulting overlay (tree, PeerIDs,
  /// neighbor tables) is bit-identical to build(n, seed, config) while
  /// skipping the per-join shift-routing cost. This is what lets bench_scale
  /// stand up million-peer overlays in seconds.
  static FissioneNetwork build_snapshot(std::size_t n, std::uint64_t seed,
                                        Config config);

  /// Grow this network to `n` peers via the snapshot (non-routing) join
  /// path; equivalent to calling join() until num_peers() == n.
  void grow_snapshot(std::size_t n);

  // --- membership -------------------------------------------------------
  // Structural changes commute instantly (the zero-delay degenerate case);
  // pass a MembershipReport to learn what a timed repair protocol would
  // deliver over the transport (see fissione::ChurnDriver).
  JoinStats join(MembershipReport* report = nullptr);
  /// Graceful departure: the peer's zone and objects are taken over.
  void leave(PeerId peer, MembershipReport* report = nullptr);
  /// Ungraceful failure: zone is healed but the peer's objects are lost.
  /// Returns the number of lost objects.
  std::size_t crash(PeerId peer, MembershipReport* report = nullptr);

  // --- accessors ---------------------------------------------------------
  std::size_t num_peers() const { return alive_.size(); }
  bool is_alive(PeerId id) const {
    return id < ids_.size() && alive_flags_[id] != 0;
  }
  /// Record view of one peer, assembled from the column arrays. The spans
  /// inside are valid until the next membership or publish operation.
  Peer peer(PeerId id) const;
  /// One column of the view: the PeerID, or the native object store (valid
  /// like the view's spans). For callers that read one column of many peers.
  const kautz::KautzString& peer_id(PeerId id) const { return ids_[id]; }
  std::span<const StoredObject> store_of(PeerId id) const {
    return stores_.view(store_refs_[id]);
  }
  const std::vector<PeerId>& alive_peers() const { return alive_; }
  /// Position of an alive peer in alive_peers().
  std::size_t alive_index(PeerId id) const { return alive_pos_[id]; }
  /// One past the largest PeerId ever allocated (alive or free).
  std::size_t peer_id_bound() const { return ids_.size(); }
  /// Released PeerIds awaiting reuse: exactly the ids below
  /// peer_id_bound() that are not alive.
  const std::vector<PeerId>& free_peers() const { return free_ids_; }
  PeerId random_peer();
  const KautzTree& tree() const { return tree_; }
  const Config& config() const { return config_; }
  std::size_t overlay_size() const override { return alive_.size(); }

  /// Toggle proximity-aware next-hop tie-breaking (see Config) at runtime;
  /// the overlay structure is untouched, only route() choices change.
  void set_proximity_next_hop(bool on) { config_.proximity_next_hop = on; }

  /// Attach a per-peer service-load recorder: the query layers (FRT search
  /// arrivals, replica walk hops) land one count on each receiving peer.
  /// Null detaches. Measurement only — never affects routing or timing.
  void set_service_load(ServiceLoadMap* load) { service_load_ = load; }
  void record_service(PeerId receiver) const {
    if (service_load_ != nullptr) {
      service_load_->add(receiver);
    }
  }
  /// The attached recorder (null when none) — the rebalancer reads service
  /// deltas from it, and drains its touched list, to locate hot peers.
  const ServiceLoadMap* service_load() const { return service_load_; }
  ServiceLoadMap* service_load() { return service_load_; }

  // --- key-range delegation ----------------------------------------------
  // The rebalancer's cutover surface. Ranges in the registry are pairwise
  // prefix-free, hosts are alive peers whose zone is disjoint from the
  // range, and native stores hold nothing inside a delegated range — all
  // enforced here and re-checked by check_invariants().

  /// Pull every stored object under `range` out of its owner's native
  /// store; returns them in canonical (object_id, payload) order. The range
  /// must not overlap an existing delegation.
  std::vector<StoredObject> detach_range(const kautz::KautzString& range);
  /// Register `range` as hosted by `host` with the given (detached)
  /// contents. CHECKs the registry stays prefix-free, the host is alive and
  /// not an owner of the range, and every object extends the range.
  void delegate_range(const kautz::KautzString& range, PeerId host,
                      std::vector<StoredObject> objects);
  /// Drop the delegation and return its contents (callers re-publish them
  /// natively, hand them to a new host, or count them as lost).
  std::vector<StoredObject> revoke_delegation(const kautz::KautzString& range);
  /// Move an existing delegation to a new (alive, non-owner) host.
  void set_delegation_host(const kautz::KautzString& range, PeerId host);
  const Delegation* find_delegation(const kautz::KautzString& range) const;
  const DelegationMap& delegations() const { return delegations_; }
  bool has_delegations() const { return !delegations_.empty(); }
  /// The delegation whose range prefixes `object_id`, if any (at most one:
  /// ranges are prefix-free).
  const Delegation* delegation_covering(
      const kautz::KautzString& object_id) const;

  /// Contiguous slice of `d.objects` whose ObjectIDs extend `prefix`
  /// (objects are sorted, so prefix runs are contiguous).
  static std::span<const StoredObject> delegation_segment(
      const Delegation& d, const kautz::KautzString& prefix);

  /// Visit the owner-side slices of every delegation intersecting the zone
  /// `zone_prefix` (a PeerID): fn(range, slice) with slice restricted to
  /// the intersection. No-op while the registry is empty.
  template <typename Fn>
  void visit_delegation_slices(const kautz::KautzString& zone_prefix,
                               Fn&& fn) const {
    for (const auto& [range, d] : delegations_) {
      if (zone_prefix.is_prefix_of(range)) {
        fn(range, std::span<const StoredObject>(d.objects));
      } else if (range.is_prefix_of(zone_prefix)) {
        fn(range, delegation_segment(d, zone_prefix));
      }
    }
  }

  /// Logical owner-side store of `p`: its native store plus the migrated
  /// objects whose structural owner it is. What walk-based scans (top-k,
  /// k-NN) and ground truths iterate so answers are delegation-agnostic.
  template <typename Fn>
  void for_each_owned(PeerId p, Fn&& fn) const {
    for (const StoredObject& obj : store_of(p)) {
      fn(obj);
    }
    if (!delegations_.empty()) {
      visit_delegation_slices(
          ids_[p], [&fn](const kautz::KautzString&,
                         std::span<const StoredObject> slice) {
            for (const StoredObject& obj : slice) {
              fn(obj);
            }
          });
    }
  }

  // --- data plane --------------------------------------------------------
  /// Ground-truth owner (tree descent, no messages).
  PeerId owner_of(const kautz::KautzString& object_id) const;
  /// Place an object directly at its owner (no routing cost), as when
  /// seeding a workload.
  void publish(const kautz::KautzString& object_id, std::uint64_t payload);
  /// Overlay exact-match routing from `from` to the owner of `object_id`
  /// (paper §3: shift routing; hops <= |PeerID(from)|).
  RouteResult route(PeerId from, const kautz::KautzString& object_id) const;
  /// Route and collect payloads stored under `object_id`.
  std::vector<std::uint64_t> lookup(PeerId from,
                                    const kautz::KautzString& object_id,
                                    RouteResult* route_out = nullptr) const;

  /// Deterministic naming of arbitrary keys (the paper's Kautz_hash).
  kautz::KautzString kautz_hash(std::string_view key) const;
  /// Uniform random ObjectID.
  kautz::KautzString random_object_id();

  // --- introspection / validation ----------------------------------------
  /// Full structural validation: tree structure, neighbor tables equal to a
  /// fresh recomputation, in/out transpose consistency, object placement.
  void check_invariants() const;
  /// Max PeerID-length difference across neighbor links (the neighborhood
  /// invariant holds iff this is <= 1).
  std::size_t max_neighbor_length_gap() const;
  /// Average total degree (|out| + |in|) across peers; ~4 in FISSIONE.
  double average_degree() const;
  Histogram peer_id_length_histogram() const;
  std::size_t total_objects() const;

 private:
  using EdgeRef = util::ArenaPool<PeerId>::Ref;
  using StoreRef = util::ArenaPool<StoredObject>::Ref;

  // Column accessors (SoA). The spans are invalidated by pool growth — copy
  // a list out before mutating the same pool while walking it.
  bool alive(PeerId id) const { return alive_flags_[id] != 0; }
  std::span<const PeerId> out_of(PeerId id) const {
    return edges_.view(out_refs_[id]);
  }
  std::span<const PeerId> in_of(PeerId id) const {
    return edges_.view(in_refs_[id]);
  }
  /// Move a peer's store out of the arena (the block is kept for reuse).
  std::vector<StoredObject> take_store(PeerId id);

  /// Iterator to the delegation covering `object_id`, or end(). Ranges are
  /// prefix-free, so the covering range — if any — is the greatest key not
  /// above `object_id`: one map probe, no scan.
  DelegationMap::iterator covering_iter(const kautz::KautzString& object_id);

  PeerId allocate_peer();
  void release_peer(PeerId id);
  std::vector<PeerId> compute_out_neighbors(PeerId id) const;
  /// Recompute out-lists of `affected` (dedup, skips dead peers) and patch
  /// in-list transposes. Returns the peers actually refreshed — the rewired
  /// set a timed repair protocol must update.
  std::vector<PeerId> refresh_neighbors(std::vector<PeerId> affected);
  /// Split the zone of `victim`, assigning the new half to a fresh peer.
  PeerId split_peer(PeerId victim, MembershipReport* report);
  /// Remove `leaving` from the overlay; `transfer_objects` selects graceful
  /// departure vs crash. Returns number of dropped objects.
  std::size_t remove_peer(PeerId leaving, bool transfer_objects,
                          MembershipReport* report);
  /// Walk from `start` to a peer none of whose neighbors has a shorter
  /// PeerID (the join balancing rule). The walk is a sequence of overlay
  /// messages; `hops`/`latency`, when given, accumulate its cost.
  PeerId walk_to_local_min(PeerId start, std::uint32_t* hops = nullptr,
                           double* latency = nullptr) const;
  /// Proximity-aware next hop from `cur` toward `object_id` (Config flag):
  /// cheapest link among the neighbors — out *and* in — with minimal
  /// remaining shift distance (in-neighbors occasionally align better,
  /// shortening the walk). `target` is the canonical shift-routing target
  /// at `cur`.
  PeerId proximity_next_hop(PeerId cur, const kautz::KautzString& object_id,
                            const kautz::KautzString& target) const;

  Config config_;
  Rng rng_;
  // Per-peer columns, indexed by PeerId (parallel arrays).
  std::vector<kautz::KautzString> ids_;
  std::vector<std::uint8_t> alive_flags_;
  std::vector<EdgeRef> out_refs_;
  std::vector<EdgeRef> in_refs_;
  std::vector<StoreRef> store_refs_;
  util::ArenaPool<PeerId> edges_;        ///< out- and in-lists, one arena
  util::ArenaPool<StoredObject> stores_; ///< per-peer object stores
  std::vector<PeerId> free_ids_;
  std::vector<PeerId> alive_;
  std::vector<std::size_t> alive_pos_;  ///< index of peer in alive_
  KautzTree tree_;
  DelegationMap delegations_;  ///< migrated ranges, pairwise prefix-free
  ServiceLoadMap* service_load_ = nullptr;  ///< not owned; may be null
};

}  // namespace armada::fissione
