#include "replica/replication.h"

#include <algorithm>
#include <string>
#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace armada::replica {

using fissione::PeerId;
using fissione::StoredObject;
using kautz::KautzString;

namespace {

// Canonical snapshot order: content equality across re-collections must not
// depend on which primary held which object.
bool canonical_less(const StoredObject& a, const StoredObject& b) {
  if (a.object_id != b.object_id) {
    return a.object_id < b.object_id;
  }
  return a.payload < b.payload;
}

}  // namespace

ReplicationManager::ReplicationManager(fissione::FissioneNetwork& net,
                                       const ReplicationConfig& config,
                                       ReplicaStats& stats)
    : net_(net), config_(config), stats_(stats) {
  ARMADA_CHECK(config_.region_prefix_len > 0);
}

const ReplicationManager::RegionReplica* ReplicationManager::find(
    const KautzString& prefix) const {
  const auto it = regions_.find(prefix);
  return it == regions_.end() ? nullptr : &it->second;
}

bool ReplicationManager::is_primary(PeerId peer,
                                    const KautzString& prefix) const {
  const KautzString& pid = net_.peer(peer).peer_id;
  return pid.is_prefix_of(prefix) || prefix.is_prefix_of(pid);
}

std::vector<PeerId> ReplicationManager::primaries(
    const KautzString& prefix) const {
  std::vector<PeerId> out;
  for (PeerId p : net_.alive_peers()) {
    if (is_primary(p, prefix)) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<StoredObject> ReplicationManager::collect_objects(
    const KautzString& prefix) const {
  std::vector<StoredObject> out;
  for (PeerId p : primaries(prefix)) {
    for (const StoredObject& obj : net_.peer(p).store) {
      if (prefix.is_prefix_of(obj.object_id)) {
        out.push_back(obj);
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
  std::sort(out.begin(), out.end(), canonical_less);
  return out;
}

void ReplicationManager::sync_holder(sim::Simulator& sim,
                                     const KautzString& prefix,
                                     Holder& holder) {
  holder.synced = false;
  holder.pending = 0;
  ++holder.version;
  const std::uint64_t version = holder.version;
  net::Transport& transport = net_.transport();
  if (obs::TraceRecorder* rec = transport.trace(); rec != nullptr) {
    // When a query's popularity tick tripped this placement, tag its
    // trace: the kHandoff spans below are replication, not query fan-out.
    rec->annotate(obs::kFlagReplication);
  }
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
  for (PeerId p : primaries(prefix)) {
    std::uint32_t count = 0;
    for (const StoredObject& obj : net_.peer(p).store) {
      if (prefix.is_prefix_of(obj.object_id)) {
        ++count;
      }
    }
    if (count > 0) {
      send(p, count);
    }
  }
  if (net_.has_delegations()) {
    net_.visit_delegation_slices(
        prefix, [this, &send](const KautzString& range,
                              std::span<const StoredObject> run) {
          if (run.empty()) {
            return;
          }
          const auto* d = net_.find_delegation(range);
          send(d->host, static_cast<std::uint32_t>(run.size()));
        });
  }
  if (holder.pending == 0) {
    holder.synced = true;  // empty region: nothing to move
  }
}

void ReplicationManager::replicate(sim::Simulator& sim,
                                   const KautzString& prefix) {
  ARMADA_CHECK(config_.replication_enabled());
  if (replicated(prefix)) {
    return;
  }
  RegionReplica region;
  auto snapshot = collect_objects(prefix);
  stats_.replica_objects += snapshot.size();
  region.objects = std::make_shared<const std::vector<StoredObject>>(
      std::move(snapshot));
  // MULTIPLE_HASH-style naming: variant i of the region prefix. owner_of is
  // a pure tree descent, so the placement is a deterministic function of
  // the membership. Primaries and repeat owners are skipped; the bounded
  // scan keeps tiny overlays (where most owners are primaries) terminating
  // with however many distinct holders exist.
  for (std::uint32_t i = 0;
       region.holders.size() < config_.max_replicas &&
       i < config_.max_replicas * 8;
       ++i) {
    KautzString name = net_.kautz_hash("replica/" + prefix.to_string() + "/" +
                                       std::to_string(i));
    const PeerId owner = net_.owner_of(name);
    if (!net_.is_alive(owner) || is_primary(owner, prefix)) {
      continue;
    }
    const bool taken =
        std::any_of(region.holders.begin(), region.holders.end(),
                    [owner](const Holder& h) { return h.peer == owner; });
    if (taken) {
      continue;
    }
    Holder holder;
    holder.name = std::move(name);
    holder.peer = owner;
    region.holders.push_back(std::move(holder));
  }
  if (region.holders.empty()) {
    stats_.replica_objects -= region.objects->size();
    return;  // nowhere to replicate to
  }
  const auto [it, inserted] = regions_.emplace(prefix, std::move(region));
  ARMADA_CHECK(inserted);
  ++stats_.regions_replicated;
  ++stats_.active_regions;
  for (Holder& holder : it->second.holders) {
    sync_holder(sim, prefix, holder);
  }
}

void ReplicationManager::tear_down(sim::Simulator& sim,
                                   const KautzString& prefix) {
  const auto it = regions_.find(prefix);
  if (it == regions_.end()) {
    return;
  }
  // Release notices travel the handoff lane; the region stops serving
  // immediately (the erase below), the notices are pure accounting.
  const std::vector<PeerId> prims = primaries(prefix);
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
  regions_.erase(it);
  ++stats_.regions_torn_down;
  --stats_.active_regions;
}

void ReplicationManager::repair(sim::Simulator& sim) {
  for (auto& [prefix, region] : regions_) {
    auto fresh = collect_objects(prefix);
    const bool content_changed = fresh != *region.objects;
    if (content_changed) {
      stats_.replica_objects += fresh.size();
      stats_.replica_objects -= region.objects->size();
      region.objects = std::make_shared<const std::vector<StoredObject>>(
          std::move(fresh));
    }
    // Re-derive the holder list against current membership (same
    // deterministic scan as replicate); carry over holders that kept their
    // name -> owner mapping and content, re-sync the rest.
    std::vector<Holder> holders;
    for (std::uint32_t i = 0;
         holders.size() < config_.max_replicas && i < config_.max_replicas * 8;
         ++i) {
      KautzString name = net_.kautz_hash(
          "replica/" + prefix.to_string() + "/" + std::to_string(i));
      const PeerId owner = net_.owner_of(name);
      if (!net_.is_alive(owner) || is_primary(owner, prefix)) {
        continue;
      }
      const bool taken =
          std::any_of(holders.begin(), holders.end(),
                      [owner](const Holder& h) { return h.peer == owner; });
      if (taken) {
        continue;
      }
      Holder holder;
      holder.name = std::move(name);
      holder.peer = owner;
      const auto old = std::find_if(
          region.holders.begin(), region.holders.end(),
          [&holder](const Holder& h) { return h.name == holder.name; });
      if (old != region.holders.end()) {
        holder.version = old->version;
        if (old->peer == holder.peer && old->synced && !content_changed) {
          holder.synced = true;
        }
      }
      holders.push_back(std::move(holder));
    }
    region.holders = std::move(holders);
    for (Holder& holder : region.holders) {
      if (!holder.synced) {
        ++stats_.repairs;
        sync_holder(sim, prefix, holder);
      }
    }
  }
}

void ReplicationManager::on_publish(const KautzString& object_id,
                                    std::uint64_t payload) {
  for (auto& [prefix, region] : regions_) {
    if (!prefix.is_prefix_of(object_id)) {
      continue;
    }
    // Copy-on-write: serves in flight keep scanning the snapshot they
    // captured; publish in this repo is direct and free, so the replica
    // copy updates instantly too.
    auto updated =
        std::make_shared<std::vector<StoredObject>>(*region.objects);
    StoredObject obj{object_id, payload};
    const auto pos = std::lower_bound(updated->begin(), updated->end(), obj,
                                      canonical_less);
    updated->insert(pos, std::move(obj));
    region.objects = std::move(updated);
    ++stats_.replica_objects;
    break;  // region prefixes share one length: at most one can match
  }
}

}  // namespace armada::replica
