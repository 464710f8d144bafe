#include "replica/replica_set.h"

#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace armada::replica {

using fissione::PeerId;
using kautz::KautzRegion;
using kautz::KautzString;

ReplicaSet::ReplicaSet(fissione::FissioneNetwork& net,
                       ReplicationConfig config)
    : net_(net),
      config_(config),
      popularity_(kDecayInterval),
      manager_(net, config_, stats_),
      selector_(net),
      cache_(config_.cache_ttl, kCacheCapacity) {
  ARMADA_CHECK_MSG(config_.cool_threshold < config_.hot_threshold,
                   "cooled regions must sit strictly below the hot "
                   "threshold or placement flaps every sweep");
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
    // Collect first: tear_down mutates the region map under iteration.
    std::vector<KautzString> cooled;
    for (const auto& [prefix, region] : manager_.regions()) {
      if (popularity_.count(prefix) < config_.cool_threshold) {
        cooled.push_back(prefix);
      }
    }
    for (const KautzString& prefix : cooled) {
      manager_.tear_down(sim, prefix);
    }
  }
  for (const KautzRegion& sub : class_subregions) {
    const KautzString com = sub.common_prefix();
    if (com.length() < config_.region_prefix_len) {
      continue;  // class wider than the tracked granularity
    }
    const KautzString prefix = com.prefix(config_.region_prefix_len);
    if (popularity_.bump(prefix) >= config_.hot_threshold &&
        !manager_.replicated(prefix)) {
      manager_.replicate(sim, prefix);
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
      net_.transport().record_cache_hit();
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
  const KautzString prefix = com.prefix(config_.region_prefix_len);
  const auto choice = selector_.choose(manager_, issuer, prefix);
  if (!choice.has_value()) {
    return false;  // not replicated, or no holder usable yet
  }

  std::vector<PeerId> path = choice->path;
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
  auto objects = manager_.find(prefix)->objects;
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
          net_.transport().record_cache_hit();
        } else {
          for (const fissione::StoredObject& obj : *objects) {
            if (subregion.contains(obj.object_id) && filter(obj)) {
              matches.push_back(obj.payload);
            }
          }
          frag.replica_routes = 1;
          ++stats_.replica_routes;
          net_.transport().record_replica_route();
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
  manager_.on_publish(object_id, payload);
  stats_.cache_invalidated_publish += cache_.invalidate_object(object_id);
}

void ReplicaSet::on_membership(sim::Simulator& sim) {
  if (!config_.enabled()) {
    return;
  }
  stats_.cache_invalidated_churn += cache_.clear();
  if (config_.replication_enabled()) {
    manager_.repair(sim);
  }
}

}  // namespace armada::replica
