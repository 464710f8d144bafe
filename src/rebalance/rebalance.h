// Online key-space rebalancing under skew.
//
// FISSIONE balances the *static* partition (zone sizes within a factor
// kappa), but a skewed query workload still concentrates service on the few
// peers owning the hot key ranges. The Rebalancer watches per-peer service
// load (a decayed EWMA over the attached ServiceLoadMap), and when a peer
// crosses the trigger threshold it migrates a hot slice of that peer's key
// space to a lightly loaded overlay neighbor.
//
// Migrations are *delegations*, not re-partitions: the Kautz partition tree
// — and with it the paper's structural guarantees (interval preservation,
// the FRT delay bound, kappa zone balance) — is never modified. A migrated
// range lives in the network's delegation registry; the query layer splits
// the last FRT hop so the host serves its slice at the same tree depth (see
// FrtSearch), and the network's membership surgery returns or drops hosted
// objects exactly like native ones, so object conservation holds under
// churn.
//
// The cutover is version-guarded by construction: objects stay in the
// donor's native store until the (kHandoff-priced) transfer lands; queries
// racing the transfer are served by the donor, queries after it by the
// host. Nothing is ever unreachable and nothing is served twice.
//
// Hysteresis: a donor must exceed `trigger_load`, an acceptor must sit at
// or below `target_load` *and* be strictly cooler than the donor, and
// every migrated range rests for `cooldown` query ticks. Every migration
// therefore moves a range strictly downhill, at a bounded rate: a
// stationary hot spot rotates across cool peers (spreading its cumulative
// load) instead of ping-ponging between two neighbors every sweep.
//
// A sweep costs what the queries since the last sweep touched, not the
// overlay's size. It refreshes only the peers the ServiceLoadMap lists as
// touched (count added to, reset or cleared) plus the peers that were at
// or above the trigger at the last sweep; no other peer can have become a
// donor, because an untouched load only decays. Untouched loads decay
// lazily: each peer remembers the sweep it was last brought current at,
// and load_of applies the missed decays on read (see decayed), bitwise
// equal to decaying every peer at every sweep.
//
// Disabled (the default config), every hook is a no-op and the query layer
// takes its pre-existing code path bitwise.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fissione/network.h"
#include "kautz/kautz_region.h"
#include "kautz/kautz_string.h"
#include "replica/popularity.h"
#include "sim/event_queue.h"

namespace armada::rebalance {

struct RebalanceConfig {
  /// Donor threshold on the decayed service-load EWMA; 0 disables the load
  /// trigger. A peer at or above it becomes a migration donor.
  double trigger_load = 0.0;
  /// Acceptor ceiling: only neighbors at or below this load accept ranges.
  double target_load = 0.0;
  /// Query ticks between rebalance sweeps (and load-EWMA refreshes).
  std::uint64_t sweep_interval = 16;
  /// Concurrent migrations across the whole overlay.
  std::uint32_t max_inflight = 4;
  /// Query ticks a migrated range rests before it may move again.
  std::uint64_t cooldown = 64;

  /// Enabled iff the trigger can fire. Query layers null a disabled
  /// rebalancer out, keeping their pre-existing path bitwise.
  bool enabled() const { return trigger_load > 0.0; }
};

struct RebalanceStats {
  std::uint64_t sweeps = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_cancelled = 0;  ///< endpoint died mid-transfer
  std::uint64_t objects_migrated = 0;
  std::uint64_t rehosted = 0;  ///< completed migrations of hosted ranges
  std::uint64_t cutover_messages = 0;
  std::uint64_t bytes_on_wire = 0;

  friend bool operator==(const RebalanceStats&,
                         const RebalanceStats&) = default;
};

class Rebalancer {
 public:
  /// Decay of the per-peer load EWMA per sweep. A power of two, so lazy
  /// decay can scale by it exactly (see decayed).
  static constexpr double kLoadDecay = 0.5;
  /// Query ticks between heat decays (see PopularityTracker).
  static constexpr std::uint64_t kHeatInterval = 16;
  /// Charged heat prefixes are truncated to this length.
  static constexpr std::size_t kMaxTrackLen = 8;
  /// Wire size of one migrated object in the batched transfer.
  static constexpr std::uint32_t kObjectBytes = 64;

  Rebalancer(fissione::FissioneNetwork& net, RebalanceConfig config);

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  const RebalanceConfig& config() const { return config_; }
  const RebalanceStats& stats() const { return stats_; }

  /// Decayed service-load EWMA of one peer as of the last sweep.
  double load_of(fissione::PeerId p) const {
    return p < loads_.size()
               ? decayed(loads_[p].load, stats_.sweeps - loads_[p].stamp)
               : 0.0;
  }
  /// `load` (>= 0) after `sweeps` idle sweeps: bitwise the result of
  /// `sweeps` rounds of `kLoadDecay * load + 0.0`. Scaling by a power of
  /// two is exact while the result stays normal, so that part is one
  /// std::ldexp; only the subnormal tail rounds, once per halving, and is
  /// walked step by step (at most ~53 steps before it reaches zero).
  static double decayed(double load, std::uint64_t sweeps);
  /// Migrations currently in flight (transfer scheduled, cutover pending).
  std::size_t inflight() const;
  /// (donor, acceptor) of every active flight — introspection for tests
  /// (e.g. crashing a donor mid-transfer on purpose).
  std::vector<std::pair<fissione::PeerId, fissione::PeerId>> flight_endpoints()
      const;

  /// Per-query entry point (ArmadaIndex calls it once per PIRA/MIRA query
  /// with every common-prefix subregion of the region): advances the query
  /// tick, charges heat, and every `sweep_interval` ticks runs a rebalance
  /// sweep whose transfers are priced on `sim` as kHandoff traffic.
  void on_query(sim::Simulator& sim,
                const std::vector<kautz::KautzRegion>& class_subregions);

  /// Membership changed (join/leave/crash executed): cancel migrations
  /// whose donor or acceptor died and forget dead peers' load history —
  /// PeerIds are recycled, so a joiner must not inherit its predecessor's
  /// EWMA. Wire this to the churn drivers' set_membership_hook.
  void on_membership(sim::Simulator& sim);

 private:
  /// One peer's load record. The sweep reads and writes all three fields
  /// of each peer it refreshes, so they share a cache line.
  struct PeerLoad {
    double load = 0.0;        ///< EWMA as of sweep `stamp`
    std::uint64_t stamp = 0;  ///< sweep `load` is current at
    std::uint64_t prev = 0;   ///< ServiceLoadMap count at the last refresh
  };

  struct Flight {
    fissione::PeerId donor = fissione::kNoPeer;
    fissione::PeerId acceptor = fissione::kNoPeer;
    kautz::KautzString range;
    bool rehost = false;  ///< moving an already-delegated range to a new host
    bool cancelled = false;
  };

  /// Bring the loads current for this sweep; returns the peers refreshed,
  /// every possible donor among them.
  const std::vector<fissione::PeerId>& refresh_loads();
  /// Apply this sweep's update to one peer (idempotent within a sweep).
  void refresh(fissione::PeerId p, const fissione::ServiceLoadMap* counts);
  void sweep(sim::Simulator& sim);
  double heat_gain(const kautz::KautzString& range, bool whole_zone) const;
  bool range_engaged(const kautz::KautzString& range) const;
  void start_migration(sim::Simulator& sim, const std::shared_ptr<Flight>& f,
                       std::uint64_t object_count);
  void finish_migration(sim::Simulator& sim, const std::shared_ptr<Flight>& f);

  fissione::FissioneNetwork& net_;
  RebalanceConfig config_;
  RebalanceStats stats_;
  /// Heat per prefix; its query-tick clock also times sweeps and cooldowns.
  replica::PopularityTracker heat_;
  /// Indexed by PeerId; covers every id that was alive at some sweep (as
  /// a scan of every peer would size it).
  std::vector<PeerLoad> loads_;
  /// Peers at or above the trigger after the last sweep.
  std::vector<fissione::PeerId> hot_;
  /// Peers on_membership zeroed a nonzero count baseline of; the next
  /// sweep refreshes them even if the map does not list them as touched.
  std::vector<fissione::PeerId> forgotten_;
  std::vector<fissione::PeerId> refreshed_;  ///< this sweep's, reused
  const fissione::ServiceLoadMap* seen_ = nullptr;  ///< map at last sweep
  std::uint64_t seen_drains_ = 0;  ///< its drains() after our drain
  std::vector<std::shared_ptr<Flight>> flights_;
  std::map<kautz::KautzString, std::uint64_t> cooldown_until_;
};

}  // namespace armada::rebalance
