// The pruning search over the forward routing tree (FRT) that underlies
// both PIRA (paper §4.2) and MIRA (paper §5).
//
// A search instance carries an *alignment*: the number j of trailing PeerID
// symbols of the current peer that form a prefix of the target leaf labels.
// A peer whose whole PeerID is aligned is a destination. Otherwise it
// forwards to each out-neighbor C = u2...ub ++ Y whose aligned part
// (aligned digits ++ Y) can still prefix a target leaf — the `viable`
// predicate. Sibling branches partition the continuation space, so every
// destination receives exactly one message, and the remaining distance
// |PeerID| - j shrinks by one per hop, giving the paper's delay bound:
// delay <= |PeerID(issuer)| < 2 log2 N.
#pragma once

#include <functional>

#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "kautz/kautz_string.h"
#include "range_query.h"
#include "sim/event_queue.h"

namespace armada::core {

/// One class of an FRT search: all target leaves share the common prefix
/// `com_t` ("ComT"). Queries whose bounds share no prefix are split into at
/// most kautz::kBase+1 classes by the callers.
struct FrtSearchClass {
  /// Common prefix of every target leaf label in this class (nonempty).
  kautz::KautzString com_t;
  /// Hereditary viability: viable(x) iff some target leaf label in this
  /// class has prefix x. Must be monotone (viable on a label implies viable
  /// on all its prefixes within the class).
  std::function<bool(const kautz::KautzString&)> viable;
};

/// Executes FRT search classes for one query on a discrete-event simulator
/// and accumulates the paper's per-query metrics. `on_destination` runs the
/// local scan at each serving peer over a StoreView: the peer's native
/// store, plus — when the rebalancer has migrated key ranges — the
/// delegation slices it must serve.
///
/// Migrated ranges never add depth: when a forwarding parent is about to
/// deliver to a destination child whose zone intersects delegated ranges,
/// it splits the last hop — one message per viable delegation host (each
/// serving its slice) and, if undelegated viable targets remain, the
/// native message with those ranges excluded. Host messages travel at the
/// same tree depth as the destination they stand in for, so the paper's
/// bound delay <= |PeerID(issuer)| is preserved. Races resolve at arrival
/// time against the live registry: a branch dispatched before a cutover
/// that lands after it scans the owner-side slices (nothing is dropped),
/// and the dispatch-time exclusion list keeps split serves disjoint
/// (nothing is double-counted).
class FrtSearch {
 public:
  /// Local scan at one serving peer.
  using DestinationScan = std::function<void(
      fissione::PeerId, const fissione::StoreView&, RangeQueryResult&)>;

  /// The network reference is mutable solely for the transport's queueing
  /// delivery path; the overlay structure is never modified.
  explicit FrtSearch(fissione::FissioneNetwork& net) : net_(net) {}

  /// Run the search on a caller-owned simulator: its messages compete
  /// with every other flow on `sim` (concurrent queries, repair traffic)
  /// through the shared transport queues, and `done` receives the finished
  /// result when the last branch lands. The search obeys the transport's
  /// installed flow-control policy: branches back off into backlogged next
  /// hops, and a branch refused admission is shed — the result then
  /// carries coverage = reached / (reached + shed destinations), counted
  /// exactly by a structural recursion over the forwarding tree (sibling
  /// branches partition the destination space). `classes` is taken by
  /// value; captured state in `viable` must be owned by the closures.
  void run_async(sim::Simulator& sim, fissione::PeerId issuer,
                 std::vector<FrtSearchClass> classes,
                 DestinationScan on_destination,
                 std::function<void(RangeQueryResult)> done) const;

  /// The paper's ComS: length of the longest suffix of `peer_id` that is a
  /// prefix of `com_t` (the canonical start alignment).
  static std::size_t start_alignment(const kautz::KautzString& peer_id,
                                     const kautz::KautzString& com_t);

 private:
  fissione::FissioneNetwork& net_;
};

}  // namespace armada::core
