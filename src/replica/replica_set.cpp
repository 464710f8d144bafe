#include "replica/replica_set.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace armada::replica {

using fissione::PeerId;
using fissione::StoredObject;
using kautz::KautzRegion;
using kautz::KautzString;

ReplicaSet::ReplicaSet(fissione::FissioneNetwork& net,
                       ReplicationConfig config)
    : net_(net),
      config_(config),
      popularity_(kDecayInterval),
      cache_(config_.cache_ttl, kCacheCapacity) {
  ARMADA_CHECK(config_.region_prefix_len > 0);
  ARMADA_CHECK_MSG(config_.cool_threshold < config_.hot_threshold,
                   "cooled regions must sit strictly below the hot "
                   "threshold or placement flaps every sweep");
}

bool ReplicaSet::is_primary(PeerId peer, const KautzString& prefix) const {
  const KautzString& pid = net_.peer(peer).peer_id;
  return pid.is_prefix_of(prefix) || prefix.is_prefix_of(pid);
}

void ReplicaSet::annotate(std::uint32_t flag) const {
  if (obs::TraceRecorder* rec = net_.transport().trace(); rec != nullptr) {
    rec->annotate(flag);
  }
}

std::vector<PeerId> ReplicaSet::primaries(const KautzString& prefix) const {
  return net_.tree().cover_of_prefix(prefix);
}

void ReplicaSet::alive_order(std::vector<PeerId>& peers) const {
  std::sort(peers.begin(), peers.end(), [this](PeerId a, PeerId b) {
    return net_.alive_index(a) < net_.alive_index(b);
  });
}

std::vector<StoredObject> ReplicaSet::collect_objects(
    const KautzString& prefix) const {
  return collect(prefix, primaries(prefix));
}

std::vector<StoredObject> ReplicaSet::collect(
    const KautzString& prefix, const std::vector<PeerId>& prims) const {
  std::vector<StoredObject> out;
  for (PeerId p : prims) {
    const std::span<const StoredObject> store = net_.store_of(p);
    if (prefix.is_prefix_of(net_.peer_id(p))) {
      // Below the prefix: the PeerID, hence every stored ObjectID,
      // extends it.
      out.insert(out.end(), store.begin(), store.end());
    } else {
      for (const StoredObject& obj : store) {
        if (prefix.is_prefix_of(obj.object_id)) {
          out.push_back(obj);
        }
      }
    }
  }
  // Region objects inside migrated ranges live in the delegation registry,
  // not in any primary's native store; fold their slices in so snapshots
  // stay complete while the rebalancer is active.
  if (net_.has_delegations()) {
    net_.visit_delegation_slices(
        prefix, [&out](const KautzString&, std::span<const StoredObject> run) {
          out.insert(out.end(), run.begin(), run.end());
        });
  }
  // Content equality across re-collections must not depend on which
  // primary held which object.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReplicaSet::Holder> ReplicaSet::derive_holders(
    const KautzString& prefix) const {
  const std::string stem = "replica/" + prefix.to_string() + "/";
  std::vector<Holder> holders;
  for (std::uint32_t i = 0; holders.size() < config_.max_replicas &&
                            i < config_.max_replicas * 8;
       ++i) {
    KautzString name = net_.kautz_hash(stem + std::to_string(i));
    const PeerId owner = net_.owner_of(name);
    if (!net_.is_alive(owner) || is_primary(owner, prefix)) {
      continue;
    }
    const bool taken =
        std::any_of(holders.begin(), holders.end(),
                    [owner](const Holder& h) { return h.peer == owner; });
    if (!taken) {
      holders.push_back(Holder{std::move(name), owner});
    }
  }
  return holders;
}

void ReplicaSet::sync_holder(sim::Simulator& sim, const KautzString& prefix,
                             const std::vector<PeerId>& prims,
                             Holder& holder) {
  holder.synced = false;
  holder.pending = 0;
  ++holder.version;
  const std::uint64_t version = holder.version;
  net::Transport& transport = net_.transport();
  // When a query's popularity tick tripped this placement, tag its trace:
  // the kHandoff spans below are replication, not query fan-out.
  annotate(obs::kFlagReplication);
  // One batched transfer per peer actually holding region objects — each
  // primary, plus each delegation host serving a migrated slice of the
  // region; the version guard keeps arrivals of a superseded sync (re-sync
  // raced by churn) from marking the newer one complete.
  const auto send = [this, &sim, &transport, &holder, &prefix,
                     version](PeerId from, std::uint32_t count) {
    const std::uint32_t bytes =
        transport.default_message_bytes() + kObjectBytes * count;
    ++holder.pending;
    ++stats_.placement_messages;
    stats_.placement_bytes += bytes;
    transport.deliver(
        sim, from, holder.peer, bytes,
        [this, prefix, name = holder.name, version](sim::Time) {
          const auto it = regions_.find(prefix);
          if (it == regions_.end()) {
            return;  // torn down while the transfer was in flight
          }
          for (Holder& h : it->second.holders) {
            if (h.name == name && h.version == version) {
              if (--h.pending == 0) {
                h.synced = true;
              }
              return;
            }
          }
        },
        0.0, net::TrafficClass::kHandoff);
  };
  for (PeerId p : prims) {
    const std::span<const StoredObject> store = net_.store_of(p);
    auto count = static_cast<std::uint32_t>(store.size());
    if (!prefix.is_prefix_of(net_.peer_id(p))) {
      count = static_cast<std::uint32_t>(std::count_if(
          store.begin(), store.end(), [&prefix](const StoredObject& obj) {
            return prefix.is_prefix_of(obj.object_id);
          }));
    }
    if (count > 0) {
      send(p, count);
    }
  }
  if (net_.has_delegations()) {
    net_.visit_delegation_slices(
        prefix, [this, &send, &holder](const KautzString& range,
                                       std::span<const StoredObject> run) {
          const PeerId host = net_.find_delegation(range)->host;
          // A holder hosting a migrated slice stores it already.
          if (!run.empty() && host != holder.peer) {
            send(host, static_cast<std::uint32_t>(run.size()));
          }
        });
  }
  if (holder.pending == 0) {
    holder.synced = true;  // empty region: nothing to move
  }
}

void ReplicaSet::replicate(sim::Simulator& sim, const KautzString& prefix) {
  std::vector<Holder> holders = derive_holders(prefix);
  if (holders.empty()) {
    return;  // nowhere to replicate to
  }
  std::vector<PeerId> prims = primaries(prefix);
  auto snapshot = collect(prefix, prims);
  alive_order(prims);
  stats_.replica_objects += snapshot.size();
  const auto [it, inserted] = regions_.emplace(
      prefix,
      RegionReplica{std::move(holders),
                    std::make_shared<const std::vector<StoredObject>>(
                        std::move(snapshot))});
  ARMADA_CHECK(inserted);
  ++stats_.regions_replicated;
  ++stats_.active_regions;
  for (Holder& holder : it->second.holders) {
    sync_holder(sim, prefix, prims, holder);
  }
}

ReplicaSet::Regions::iterator ReplicaSet::tear_down(sim::Simulator& sim,
                                                    Regions::iterator it) {
  // Release notices travel the handoff lane; the region stops serving
  // immediately (the erase below), the notices are pure accounting.
  std::vector<PeerId> prims = primaries(it->first);
  alive_order(prims);
  const PeerId origin = prims.empty() ? fissione::kNoPeer : prims.front();
  net::Transport& transport = net_.transport();
  for (const Holder& holder : it->second.holders) {
    if (origin == fissione::kNoPeer || !net_.is_alive(holder.peer)) {
      continue;
    }
    const std::uint32_t bytes = transport.default_message_bytes();
    ++stats_.placement_messages;
    stats_.placement_bytes += bytes;
    transport.deliver(sim, origin, holder.peer, bytes, nullptr, 0.0,
                      net::TrafficClass::kHandoff);
  }
  stats_.replica_objects -= it->second.objects->size();
  ++stats_.regions_torn_down;
  --stats_.active_regions;
  return regions_.erase(it);
}

std::optional<ReplicaSet::Choice> ReplicaSet::choose(
    PeerId issuer, const RegionReplica& region) const {
  std::optional<Choice> best;
  double best_latency = 0.0;
  for (const Holder& holder : region.holders) {
    if (!holder.synced || !net_.is_alive(holder.peer)) {
      continue;
    }
    fissione::RouteResult route = net_.route(issuer, holder.name);
    if (route.owner != holder.peer) {
      continue;  // ownership moved under churn; repair will re-sync
    }
    // Strict < keeps the lowest holder index on latency ties.
    if (!best.has_value() || route.latency < best_latency) {
      best = Choice{holder.peer, std::move(route.path)};
      best_latency = route.latency;
    }
  }
  return best;
}

std::vector<std::uint64_t> ReplicaSet::scan(
    std::span<const StoredObject> sorted, const KautzRegion& subregion,
    const ObjectFilter& filter) {
  const auto first = std::lower_bound(
      sorted.begin(), sorted.end(), subregion.lo(),
      [](const StoredObject& obj, const KautzString& lo) {
        return obj.object_id < lo;
      });
  const auto last = std::upper_bound(
      first, sorted.end(), subregion.hi(),
      [](const KautzString& hi, const StoredObject& obj) {
        return hi < obj.object_id;
      });
  std::vector<std::uint64_t> matches;
  for (auto it = first; it != last; ++it) {
    if (subregion.contains(it->object_id) && filter(*it)) {
      matches.push_back(it->payload);
    }
  }
  return matches;
}

void ReplicaSet::on_query(sim::Simulator& sim,
                          const std::vector<KautzRegion>& class_subregions) {
  if (!config_.enabled()) {
    return;
  }
  ++stats_.queries;
  const bool swept = popularity_.tick();
  if (!config_.replication_enabled()) {
    return;
  }
  if (swept) {
    for (auto it = regions_.begin(); it != regions_.end();) {
      it = popularity_.count(it->first) < config_.cool_threshold
               ? tear_down(sim, it)
               : std::next(it);
    }
  }
  for (const KautzRegion& sub : class_subregions) {
    const KautzString com = sub.common_prefix();
    if (com.length() < config_.region_prefix_len) {
      continue;  // class wider than the tracked granularity
    }
    const KautzString prefix = com.prefix(config_.region_prefix_len);
    if (popularity_.bump(prefix) >= config_.hot_threshold &&
        !regions_.contains(prefix)) {
      replicate(sim, prefix);
    }
  }
}

bool ReplicaSet::serve_class(sim::Simulator& sim, PeerId issuer,
                             const KautzRegion& subregion,
                             const std::string& cache_tag,
                             const ObjectFilter& filter, ServeDone done) {
  if (!config_.enabled()) {
    return false;
  }
  const std::uint64_t now_tick = popularity_.now();
  const bool cacheable = config_.cache_enabled();
  if (cacheable) {
    if (const ResultCache::Entry* hit =
            cache_.lookup(issuer, cache_tag, now_tick)) {
      // Local hit: the class costs nothing on the wire.
      ++stats_.cache_hits;
      annotate(obs::kFlagCacheHit);
      sim.schedule_at(
          sim.now(), [done = std::move(done), matches = hit->matches] {
            sim::QueryStats frag;
            frag.cache_hits = 1;
            done(frag, matches, fissione::kNoPeer);
          });
      return true;
    }
    ++stats_.cache_misses;
  }
  if (!config_.replication_enabled()) {
    return false;
  }
  const KautzString com = subregion.common_prefix();
  if (com.length() < config_.region_prefix_len) {
    return false;  // class spans several regions: fan out normally
  }
  const auto region = regions_.find(com.prefix(config_.region_prefix_len));
  if (region == regions_.end()) {
    return false;  // not replicated
  }
  std::optional<Choice> choice = choose(issuer, region->second);
  if (!choice.has_value()) {
    return false;  // no holder usable yet
  }

  std::vector<PeerId> path = std::move(choice->path);
  // Path-cache probe: serve from the peer nearest the issuer holding a
  // fresh entry, truncating the walk there. The matches are copied at
  // decision time — the entry may be evicted or invalidated mid-walk, and
  // the serving peer answers with what it had when the request departed.
  std::vector<std::uint64_t> cached;
  bool from_cache = false;
  if (cacheable) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (const ResultCache::Entry* hit =
              cache_.lookup(path[i], cache_tag, now_tick)) {
        cached = hit->matches;
        from_cache = true;
        path.resize(i + 1);
        break;
      }
    }
  }
  // Snapshot at decision time, scanned at arrival: the holder answers with
  // the replica content it was synced with (copy-on-write keeps the
  // captured snapshot alive across publishes and repairs).
  auto objects = region->second.objects;
  const PeerId holder = choice->holder;

  net::Transport::WalkOptions options;
  options.bytes = net_.transport().default_message_bytes();
  options.cls = net::TrafficClass::kQuery;
  options.flow_control = true;
  net_.transport().deliver_walk(
      sim, path,
      options,
      [this, done = std::move(done), path, subregion, filter, cache_tag,
       objects = std::move(objects), cached = std::move(cached), from_cache,
       holder, cacheable](const sim::QueryStats& walk) {
        sim::QueryStats frag = walk;
        if (frag.coverage <= 0.0 && path.size() > 1) {
          // Admission shed the walk: partial (empty) answer, never cached.
          done(std::move(frag), {}, fissione::kNoPeer);
          return;
        }
        for (std::size_t i = 1; i < path.size(); ++i) {
          net_.record_service(path[i]);
        }
        std::vector<std::uint64_t> matches;
        PeerId served_by = fissione::kNoPeer;
        if (from_cache) {
          matches = cached;
          frag.cache_hits = 1;
          ++stats_.cache_hits;
          annotate(obs::kFlagCacheHit);
        } else {
          matches = scan(*objects, subregion, filter);
          frag.replica_routes = 1;
          ++stats_.replica_routes;
          annotate(obs::kFlagReplicaRoute);
          served_by = holder;
        }
        if (cacheable) {
          // Fill the whole walk (minus whoever served) so later walks
          // truncate earlier and repeat issuers answer locally.
          const std::size_t served_at = from_cache ? path.size() - 1 : path.size();
          for (std::size_t i = 0; i < path.size(); ++i) {
            if (i == served_at) {
              continue;
            }
            if (cache_.insert(path[i], cache_tag, subregion, matches,
                              popularity_.now())) {
              ++stats_.cache_insertions;
            }
          }
        }
        done(std::move(frag), std::move(matches), served_by);
      });
  return true;
}

void ReplicaSet::cache_insert(PeerId peer, const std::string& cache_tag,
                              const KautzRegion& subregion,
                              const std::vector<std::uint64_t>& matches) {
  if (!config_.cache_enabled()) {
    return;
  }
  if (cache_.insert(peer, cache_tag, subregion, matches, popularity_.now())) {
    ++stats_.cache_insertions;
  }
}

void ReplicaSet::on_publish(const KautzString& object_id,
                            std::uint64_t payload) {
  if (!config_.enabled()) {
    return;
  }
  // Region prefixes share one length, so at most one region holds the
  // object. Copy-on-write: serves in flight keep scanning the snapshot they
  // captured.
  if (object_id.length() >= config_.region_prefix_len) {
    const auto it = regions_.find(object_id.prefix(config_.region_prefix_len));
    if (it != regions_.end()) {
      auto updated =
          std::make_shared<std::vector<StoredObject>>(*it->second.objects);
      StoredObject obj{object_id, payload};
      const auto pos = std::lower_bound(updated->begin(), updated->end(), obj);
      updated->insert(pos, std::move(obj));
      it->second.objects = std::move(updated);
      ++stats_.replica_objects;
    }
  }
  stats_.cache_invalidated_publish += cache_.invalidate_object(object_id);
}

void ReplicaSet::on_membership(sim::Simulator& sim) {
  if (!config_.enabled()) {
    return;
  }
  stats_.cache_invalidated_churn += cache_.clear();
  for (auto& [prefix, region] : regions_) {
    std::vector<PeerId> prims = primaries(prefix);
    auto fresh = collect(prefix, prims);
    const bool content_changed = fresh != *region.objects;
    if (content_changed) {
      stats_.replica_objects += fresh.size();
      stats_.replica_objects -= region.objects->size();
      region.objects = std::make_shared<const std::vector<StoredObject>>(
          std::move(fresh));
    }
    // Carry over the version of every holder that kept its name, and the
    // sync of those that also kept their owner and content; re-sync the
    // rest.
    std::vector<Holder> holders = derive_holders(prefix);
    for (Holder& holder : holders) {
      const auto old = std::find_if(
          region.holders.begin(), region.holders.end(),
          [&holder](const Holder& h) { return h.name == holder.name; });
      if (old != region.holders.end()) {
        holder.version = old->version;
        holder.synced =
            old->peer == holder.peer && old->synced && !content_changed;
      }
    }
    region.holders = std::move(holders);
    bool ordered = false;
    for (Holder& holder : region.holders) {
      if (!holder.synced) {
        if (!ordered) {
          alive_order(prims);
          ordered = true;
        }
        ++stats_.repairs;
        sync_holder(sim, prefix, prims, holder);
      }
    }
  }
}

}  // namespace armada::replica
