#include "rebalance/rebalance.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace armada::rebalance {

using fissione::PeerId;
using fissione::ServiceLoadMap;
using fissione::StoredObject;
using kautz::KautzRegion;
using kautz::KautzString;

Rebalancer::Rebalancer(fissione::FissioneNetwork& net, RebalanceConfig config)
    : net_(net), config_(config), heat_(kHeatInterval) {
  ARMADA_CHECK(config_.sweep_interval > 0);
}

std::size_t Rebalancer::inflight() const {
  std::size_t n = 0;
  for (const auto& f : flights_) {
    n += f->cancelled ? 0 : 1;
  }
  return n;
}

std::vector<std::pair<PeerId, PeerId>> Rebalancer::flight_endpoints() const {
  std::vector<std::pair<PeerId, PeerId>> out;
  for (const auto& f : flights_) {
    if (!f->cancelled) {
      out.emplace_back(f->donor, f->acceptor);
    }
  }
  return out;
}

void Rebalancer::on_query(sim::Simulator& sim,
                          const std::vector<KautzRegion>& class_subregions) {
  heat_.tick();
  for (const KautzRegion& sub : class_subregions) {
    KautzString prefix = sub.common_prefix();
    if (prefix.length() > kMaxTrackLen) {
      prefix = prefix.prefix(kMaxTrackLen);
    }
    heat_.bump(prefix);
  }
  if (heat_.now() % config_.sweep_interval == 0) {
    sweep(sim);
  }
}

void Rebalancer::on_membership(sim::Simulator&) {
  for (const auto& f : flights_) {
    if (!f->cancelled &&
        (!net_.is_alive(f->donor) || !net_.is_alive(f->acceptor))) {
      f->cancelled = true;
      ++stats_.migrations_cancelled;
    }
  }
  // PeerIds are recycled: a joiner reusing a dead peer's id must start with
  // a clean slate, both in the EWMA and in the raw-count baseline (the
  // network resets its ServiceLoadMap entry the same way). The dead ids
  // are exactly the released ones.
  for (PeerId p : net_.free_peers()) {
    if (p < loads_.size()) {
      PeerLoad& l = loads_[p];
      if (l.prev != 0) {
        forgotten_.push_back(p);  // the baseline no longer equals the count
      }
      l.load = 0.0;
      l.prev = 0;
    }
  }
}

double Rebalancer::decayed(double load, std::uint64_t sweeps) {
  static_assert(kLoadDecay == 0.5);
  if (load == 0.0 || sweeps == 0) {
    return load;
  }
  // Halvings that keep the result normal, hence exact.
  constexpr int kMinExponent = std::numeric_limits<double>::min_exponent - 1;
  const int exponent = std::ilogb(load);
  const std::uint64_t exact =
      exponent > kMinExponent
          ? static_cast<std::uint64_t>(exponent - kMinExponent)
          : 0;
  if (sweeps <= exact) {
    return std::ldexp(load, -static_cast<int>(sweeps));
  }
  load = std::ldexp(load, -static_cast<int>(exact));
  for (std::uint64_t i = exact; i < sweeps && load != 0.0; ++i) {
    load = kLoadDecay * load;
  }
  return load;
}

void Rebalancer::refresh(PeerId p, const ServiceLoadMap* counts) {
  PeerLoad& l = loads_[p];
  if (l.stamp == stats_.sweeps) {
    return;  // already current
  }
  const std::uint64_t cur = counts != nullptr ? counts->count(p) : 0;
  // The count only moves backward when the id was recycled (or the map
  // cleared) between sweeps; treat the new count as this interval's
  // arrivals then.
  const std::uint64_t delta = cur >= l.prev ? cur - l.prev : cur;
  l.load = kLoadDecay * decayed(l.load, stats_.sweeps - 1 - l.stamp) +
           static_cast<double>(delta);
  l.prev = cur;
  l.stamp = stats_.sweeps;
  refreshed_.push_back(p);
}

const std::vector<PeerId>& Rebalancer::refresh_loads() {
  ServiceLoadMap* counts = net_.service_load();
  // The touched list covers every changed count only for the map drained
  // at the last sweep, and only if no one else drained it since.
  const bool full =
      counts != seen_ ||
      (counts != nullptr && counts->drains() != seen_drains_);
  refreshed_.clear();
  // Cover every id alive now. Ids are allocated densely, so only ids past
  // the covered range can extend it; they start from a zero load.
  const std::size_t covered = loads_.size();
  std::size_t hi = covered;
  for (std::size_t p = net_.peer_id_bound(); p > covered; --p) {
    if (net_.is_alive(static_cast<PeerId>(p - 1))) {
      hi = p;
      break;
    }
  }
  loads_.resize(hi, PeerLoad{0.0, stats_.sweeps - 1, 0});
  for (std::size_t p = full ? 0 : covered; p < hi; ++p) {
    refresh(static_cast<PeerId>(p), counts);
  }
  if (counts != nullptr) {
    counts->drain([&](PeerId p) {
      if (p < hi) {
        refresh(p, counts);
      }
    });
    seen_drains_ = counts->drains();
  }
  seen_ = counts;
  for (PeerId p : forgotten_) {
    refresh(p, counts);
  }
  forgotten_.clear();
  for (PeerId p : hot_) {
    refresh(p, counts);
  }
  return refreshed_;
}

double Rebalancer::heat_gain(const KautzString& range, bool whole_zone) const {
  // Queries charged inside the range follow it wherever it goes; queries
  // charged to a coarser prefix only land on the new host when the whole
  // zone (or an already-delegated range, which full-redirects) moves.
  double gain = 0.0;
  for (const auto& [prefix, count] : heat_.counters()) {
    if (range.is_prefix_of(prefix) ||
        (whole_zone && prefix.is_prefix_of(range))) {
      gain += count;
    }
  }
  return gain;
}

bool Rebalancer::range_engaged(const KautzString& range) const {
  for (const auto& f : flights_) {
    if (!f->cancelled && (f->range.is_prefix_of(range) ||
                          range.is_prefix_of(f->range))) {
      return true;
    }
  }
  return false;
}

void Rebalancer::sweep(sim::Simulator& sim) {
  ++stats_.sweeps;
  const std::vector<PeerId>& refreshed = refresh_loads();

  struct Donor {
    PeerId peer;
    double load;
  };
  std::vector<Donor> donors;
  hot_.clear();
  for (PeerId p : refreshed) {
    const double load = loads_[p].load;
    if (config_.trigger_load > 0.0 && load >= config_.trigger_load) {
      hot_.push_back(p);
      if (net_.is_alive(p)) {
        donors.push_back(Donor{p, load});
      }
    }
  }
  std::sort(donors.begin(), donors.end(), [](const Donor& a, const Donor& b) {
    if (a.load != b.load) {
      return a.load > b.load;
    }
    return a.peer < b.peer;
  });

  for (const Donor& donor : donors) {
    if (inflight() >= config_.max_inflight) {
      break;
    }

    // Candidate ranges: the donor's whole zone, its immediate sub-zones
    // (all carved from the native store), and any range the donor hosts
    // for someone else (re-hosted wholesale).
    struct Candidate {
      KautzString range;
      bool rehost;
      double gain;
      std::uint64_t count;
    };
    std::vector<Candidate> candidates;
    const KautzString zone = net_.peer(donor.peer).peer_id;
    const auto consider_native = [&](const KautzString& range,
                                     bool whole_zone) {
      if (range.empty() ||
          range.length() >= net_.config().object_id_length) {
        return;
      }
      const auto cooled = cooldown_until_.find(range);
      if (cooled != cooldown_until_.end() && cooled->second > heat_.now()) {
        return;
      }
      if (range_engaged(range)) {
        return;
      }
      for (const auto& [key, d] : net_.delegations()) {
        if (key.is_prefix_of(range) || range.is_prefix_of(key)) {
          return;  // registry keys must stay prefix-free
        }
      }
      std::uint64_t count = 0;
      for (const StoredObject& obj : net_.peer(donor.peer).store) {
        if (range.is_prefix_of(obj.object_id)) {
          ++count;
        }
      }
      if (count == 0) {
        return;  // nothing to move
      }
      candidates.push_back(
          Candidate{range, false, heat_gain(range, whole_zone), count});
    };
    consider_native(zone, true);
    for (std::uint8_t s = 0; s <= zone.base(); ++s) {
      if (!zone.can_append(s)) {
        continue;
      }
      KautzString child = zone;
      child.push_back(s);
      consider_native(child, false);
    }
    for (const auto& [key, d] : net_.delegations()) {
      if (d.host != donor.peer || d.objects.empty()) {
        continue;
      }
      const auto cooled = cooldown_until_.find(key);
      if (cooled != cooldown_until_.end() && cooled->second > heat_.now()) {
        continue;
      }
      if (range_engaged(key)) {
        continue;
      }
      candidates.push_back(
          Candidate{key, true, heat_gain(key, true), d.objects.size()});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.gain != b.gain) {
                  return a.gain > b.gain;
                }
                if (a.count != b.count) {
                  return a.count > b.count;
                }
                return a.range < b.range;
              });

    for (const Candidate& cand : candidates) {
      // A donor only sheds a range whose recent popularity is commensurate
      // with its overload: the forwarding funnel around a hot zone is hot
      // too, but its own barely-queried ranges would move for no relief.
      if (cand.gain < donor.load) {
        continue;
      }
      // Acceptor: the least-loaded overlay neighbor at or below the target
      // that is *strictly cooler than the donor*. Every migration therefore
      // moves the range downhill, and the per-range cooldown spaces moves
      // out — together the hysteresis band that turns a stationary hot spot
      // into a bounded rotation instead of a ping-pong storm.
      const fissione::Peer donor_peer = net_.peer(donor.peer);
      std::vector<PeerId> neighbors(donor_peer.out_neighbors.begin(),
                                    donor_peer.out_neighbors.end());
      neighbors.insert(neighbors.end(), donor_peer.in_neighbors.begin(),
                       donor_peer.in_neighbors.end());
      std::sort(neighbors.begin(), neighbors.end());
      neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                      neighbors.end());
      PeerId acceptor = fissione::kNoPeer;
      double acceptor_load = 0.0;
      for (PeerId a : neighbors) {
        if (a == donor.peer || !net_.is_alive(a)) {
          continue;
        }
        const KautzString& aid = net_.peer(a).peer_id;
        if (aid.is_prefix_of(cand.range) || cand.range.is_prefix_of(aid)) {
          continue;  // a host must be zone-disjoint from the range
        }
        const double load = load_of(a);
        if (load > config_.target_load || load >= donor.load) {
          continue;
        }
        if (acceptor == fissione::kNoPeer || load < acceptor_load) {
          acceptor = a;
          acceptor_load = load;
        }
      }
      if (acceptor == fissione::kNoPeer) {
        continue;  // try the next candidate range
      }
      auto flight = std::make_shared<Flight>();
      flight->donor = donor.peer;
      flight->acceptor = acceptor;
      flight->range = cand.range;
      flight->rehost = cand.rehost;
      start_migration(sim, flight, cand.count);
      break;  // one migration per donor per sweep
    }
  }
}

void Rebalancer::start_migration(sim::Simulator& sim,
                                 const std::shared_ptr<Flight>& flight,
                                 std::uint64_t object_count) {
  flights_.push_back(flight);
  cooldown_until_[flight->range] = heat_.now() + config_.cooldown;
  ++stats_.migrations_started;
  net::Transport& transport = net_.transport();
  if (obs::TraceRecorder* rec = transport.trace(); rec != nullptr) {
    // When on_query tripped this migration, tag the triggering query's
    // trace so slow-query dumps show the query raced a migration.
    rec->annotate(obs::kFlagMigration);
  }
  const std::uint32_t bytes =
      transport.default_message_bytes() +
      kObjectBytes * static_cast<std::uint32_t>(object_count);
  stats_.bytes_on_wire += bytes;
  transport.deliver(
      sim, flight->donor, flight->acceptor, bytes,
      [this, &sim, flight](sim::Time) { finish_migration(sim, flight); }, 0.0,
      net::TrafficClass::kHandoff);
}

void Rebalancer::finish_migration(sim::Simulator& sim,
                                  const std::shared_ptr<Flight>& flight) {
  flights_.erase(std::remove(flights_.begin(), flights_.end(), flight),
                 flights_.end());
  if (flight->cancelled) {
    return;  // counted when the membership event cancelled it
  }
  if (!net_.is_alive(flight->donor) || !net_.is_alive(flight->acceptor)) {
    ++stats_.migrations_cancelled;
    return;
  }
  // The membership hook cancels flights at the churn event itself, but the
  // id may have been recycled since: re-verify every delegation
  // precondition and abort instead of corrupting the registry.
  const KautzString& aid = net_.peer(flight->acceptor).peer_id;
  if (aid.is_prefix_of(flight->range) || flight->range.is_prefix_of(aid)) {
    ++stats_.migrations_cancelled;
    return;
  }
  if (flight->rehost) {
    const auto* d = net_.find_delegation(flight->range);
    if (d == nullptr || d->host != flight->donor) {
      ++stats_.migrations_cancelled;
      return;  // revoked or re-homed by membership surgery meanwhile
    }
    stats_.objects_migrated += d->objects.size();
    net_.set_delegation_host(flight->range, flight->acceptor);
    ++stats_.rehosted;
  } else {
    for (const auto& [key, d] : net_.delegations()) {
      if (key.is_prefix_of(flight->range) ||
          flight->range.is_prefix_of(key)) {
        ++stats_.migrations_cancelled;
        return;
      }
    }
    std::vector<StoredObject> objects = net_.detach_range(flight->range);
    stats_.objects_migrated += objects.size();
    net_.delegate_range(flight->range, flight->acceptor, std::move(objects));
  }
  ++stats_.migrations_completed;

  // Cutover notices: the donor tells its in-neighbors (the peers that
  // forward into its zone) where the range now lives, on the handoff lane.
  // Queries need no acknowledgement — the FRT split reads the registry —
  // so the notices are pure accounting, like the replica release notices.
  net::Transport& transport = net_.transport();
  const fissione::Peer donor_peer = net_.peer(flight->donor);
  const std::vector<PeerId> notified(donor_peer.in_neighbors.begin(),
                                     donor_peer.in_neighbors.end());
  for (PeerId nb : notified) {
    // The approximate Kautz overlay admits self-edges; a donor does not
    // notify itself.
    if (nb == flight->donor || !net_.is_alive(nb)) {
      continue;
    }
    ++stats_.cutover_messages;
    stats_.bytes_on_wire += transport.default_message_bytes();
    transport.deliver(sim, flight->donor, nb,
                      transport.default_message_bytes(), nullptr, 0.0,
                      net::TrafficClass::kHandoff);
  }
}

}  // namespace armada::rebalance
