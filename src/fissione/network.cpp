#include "fissione/network.h"

#include <algorithm>

#include "kautz/kautz_space.h"
#include "util/check.h"
#include "util/hash.h"

namespace armada::fissione {

using kautz::kBase;
using kautz::KautzString;

namespace {

std::vector<PeerId> bootstrap_ids() {
  std::vector<PeerId> ids(kBase + 1u);
  for (std::uint8_t c = 0; c <= kBase; ++c) {
    ids[c] = c;
  }
  return ids;
}

}  // namespace

FissioneNetwork::FissioneNetwork(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      tree_(bootstrap_ids()) {
  const std::size_t n = kBase + 1u;
  ids_.resize(n);
  alive_flags_.resize(n, 0);
  out_refs_.resize(n);
  in_refs_.resize(n);
  store_refs_.resize(n);
  alive_pos_.resize(n);
  for (std::uint8_t c = 0; c <= kBase; ++c) {
    ids_[c] = tree_.label_of(c);
    alive_flags_[c] = 1;
    alive_pos_[c] = alive_.size();
    alive_.push_back(c);
  }
  std::vector<PeerId> all = alive_;
  refresh_neighbors(std::move(all));
}

FissioneNetwork FissioneNetwork::build(std::size_t n, std::uint64_t seed) {
  return build_snapshot(n, seed, Config{});
}

FissioneNetwork FissioneNetwork::build_snapshot(std::size_t n,
                                                std::uint64_t seed,
                                                Config config) {
  ARMADA_CHECK(n >= kBase + 1u);
  FissioneNetwork net(config, seed);
  net.grow_snapshot(n);
  return net;
}

void FissioneNetwork::grow_snapshot(std::size_t n) {
  while (num_peers() < n) {
    // Same draws, same split site as join(): route() neither consumes RNG
    // nor influences the site — its endpoint is owner_of(target) — so the
    // routed placement walk is pure measurement and can be skipped.
    const KautzString target = random_object_id();
    (void)random_peer();  // join() draws the route source; stay aligned
    const PeerId site = walk_to_local_min(owner_of(target));
    split_peer(site, nullptr);
  }
}

Peer FissioneNetwork::peer(PeerId id) const {
  ARMADA_CHECK(id < ids_.size() && alive_flags_[id] != 0);
  return Peer{ids_[id], out_of(id), in_of(id), store_of(id), true};
}

PeerId FissioneNetwork::random_peer() {
  return alive_[rng_.next_index(alive_.size())];
}

PeerId FissioneNetwork::allocate_peer() {
  if (!free_ids_.empty()) {
    const PeerId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  ids_.emplace_back();
  alive_flags_.push_back(0);
  out_refs_.emplace_back();
  in_refs_.emplace_back();
  store_refs_.emplace_back();
  alive_pos_.push_back(0);
  return static_cast<PeerId>(ids_.size() - 1);
}

void FissioneNetwork::release_peer(PeerId id) {
  ids_[id] = KautzString{};
  alive_flags_[id] = 0;
  edges_.release(out_refs_[id]);
  edges_.release(in_refs_[id]);
  stores_.release(store_refs_[id]);
  free_ids_.push_back(id);
  if (service_load_ != nullptr) {
    // The id will be recycled: a joiner must not inherit this peer's
    // service history (it would look instantly hot to the rebalancer).
    service_load_->reset(id);
  }
}

std::vector<StoredObject> FissioneNetwork::take_store(PeerId id) {
  const std::span<StoredObject> sp = stores_.mut_view(store_refs_[id]);
  std::vector<StoredObject> out;
  out.reserve(sp.size());
  for (StoredObject& obj : sp) {
    out.push_back(std::move(obj));
  }
  stores_.clear(store_refs_[id]);
  return out;
}

std::vector<PeerId> FissioneNetwork::compute_out_neighbors(PeerId id) const {
  const KautzString& u = ids_[id];
  std::vector<PeerId> out;
  if (u.length() == 1) {
    // K(2,1) edges: U = u1 -> beta for every beta != u1.
    for (std::uint8_t beta = 0; beta <= kBase; ++beta) {
      if (beta == u.digit(0)) {
        continue;
      }
      KautzString prefix;
      prefix.push_back(beta);
      for (PeerId p : tree_.cover_of_prefix(prefix)) {
        out.push_back(p);
      }
    }
  } else {
    out = tree_.cover_of_prefix(u.drop_front());
  }
  std::sort(out.begin(), out.end(), [this](PeerId a, PeerId b) {
    return ids_[a] < ids_[b];
  });
  return out;
}

std::vector<PeerId> FissioneNetwork::refresh_neighbors(
    std::vector<PeerId> affected) {
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  std::vector<PeerId> refreshed;
  for (PeerId p : affected) {
    if (p >= ids_.size() || !alive(p)) {
      continue;
    }
    // Detach p from its old out-neighbors' in-lists. erase_value never
    // grows the arena, so walking p's out-span while editing other blocks
    // is safe.
    for (PeerId t : out_of(p)) {
      if (t < ids_.size() && alive(t)) {
        edges_.erase_value(in_refs_[t], p);
      }
    }
    std::vector<PeerId> fresh = compute_out_neighbors(p);
    for (PeerId t : fresh) {
      edges_.push_back(in_refs_[t], p);  // never t == p: Kautz, no self-loops
    }
    edges_.assign(out_refs_[p], std::move(fresh));
    refreshed.push_back(p);
  }
  return refreshed;
}

PeerId FissioneNetwork::walk_to_local_min(PeerId start, std::uint32_t* hops,
                                          double* latency) const {
  PeerId cur = start;
  for (;;) {
    PeerId best = cur;
    std::size_t best_len = ids_[cur].length();
    auto consider = [&](PeerId cand) {
      if (ids_[cand].length() < best_len) {
        best = cand;
        best_len = ids_[cand].length();
      }
    };
    for (PeerId n : out_of(cur)) {
      consider(n);
    }
    for (PeerId n : in_of(cur)) {
      consider(n);
    }
    if (best == cur) {
      return cur;
    }
    if (hops != nullptr) {
      ++*hops;
    }
    if (latency != nullptr) {
      *latency += transport_.link(cur, best);
    }
    cur = best;
  }
}

PeerId FissioneNetwork::split_peer(PeerId victim, MembershipReport* report) {
  // Collect whose out-lists can change: the victim's in-neighbors plus the
  // two peers at the split site.
  std::vector<PeerId> affected(in_of(victim).begin(), in_of(victim).end());
  affected.push_back(victim);

  const PeerId joiner = allocate_peer();
  tree_.split(victim, joiner);
  ids_[victim] = tree_.label_of(victim);
  ids_[joiner] = tree_.label_of(joiner);
  alive_flags_[joiner] = 1;
  alive_pos_[joiner] = alive_.size();
  alive_.push_back(joiner);

  // Redistribute the victim's objects between the two halves. The store is
  // materialized out of the arena first: pushing the joiner's half back in
  // can grow the pool, which would invalidate a live span of the source.
  std::vector<StoredObject> old_store = take_store(victim);
  std::vector<StoredObject> keep;
  std::vector<std::uint64_t> moved;
  for (StoredObject& obj : old_store) {
    if (ids_[victim].is_prefix_of(obj.object_id)) {
      keep.push_back(std::move(obj));
    } else {
      moved.push_back(obj.payload);
      stores_.push_back(store_refs_[joiner], std::move(obj));
    }
  }
  stores_.assign(store_refs_[victim], std::move(keep));

  affected.push_back(joiner);
  std::vector<PeerId> rewired = refresh_neighbors(std::move(affected));
  if (report != nullptr) {
    report->origin = joiner;
    report->joiner = joiner;
    report->rewired = std::move(rewired);
    if (!moved.empty()) {
      report->handoffs.push_back(
          MembershipReport::Handoff{victim, joiner, std::move(moved)});
    }
  }
  return joiner;
}

FissioneNetwork::JoinStats FissioneNetwork::join(MembershipReport* report) {
  const KautzString target = random_object_id();
  const RouteResult route_result = route(random_peer(), target);
  std::uint32_t walk_hops = 0;
  double walk_latency = 0.0;
  const PeerId site =
      walk_to_local_min(route_result.owner, &walk_hops, &walk_latency);
  const PeerId joiner = split_peer(site, report);
  if (report != nullptr) {
    report->placement_hops = route_result.hops + walk_hops;
    report->placement_latency = route_result.latency + walk_latency;
  }
  return JoinStats{joiner, route_result.hops};
}

namespace {

std::vector<std::uint64_t> store_payloads(
    std::span<const StoredObject> store) {
  std::vector<std::uint64_t> payloads;
  payloads.reserve(store.size());
  for (const StoredObject& obj : store) {
    payloads.push_back(obj.payload);
  }
  return payloads;
}

}  // namespace

std::size_t FissioneNetwork::remove_peer(PeerId leaving, bool transfer,
                                         MembershipReport* report) {
  ARMADA_CHECK(leaving < ids_.size() && alive(leaving));
  ARMADA_CHECK_MSG(num_peers() > kBase + 1u,
                   "cannot drop below the bootstrap size");

  std::size_t dropped = 0;
  if (!transfer) {
    dropped = store_of(leaving).size();
    stores_.clear(store_refs_[leaving]);
  }
  if (report != nullptr) {
    report->objects_dropped = dropped;
  }

  auto drop_from_alive = [this](PeerId p) {
    const std::size_t pos = alive_pos_[p];
    alive_[pos] = alive_.back();
    alive_pos_[alive_[pos]] = pos;
    alive_.pop_back();
  };
  auto record_handoff = [report](PeerId from, PeerId to,
                                 std::vector<std::uint64_t> payloads) {
    if (report != nullptr && !payloads.empty()) {
      report->handoffs.push_back(
          MembershipReport::Handoff{from, to, std::move(payloads)});
    }
  };
  auto detach_out_edges = [this](PeerId p) {
    for (PeerId t : out_of(p)) {
      edges_.erase_value(in_refs_[t], p);
    }
  };
  auto append_store = [this](PeerId to, std::vector<StoredObject> objs) {
    for (StoredObject& obj : objs) {
      stores_.push_back(store_refs_[to], std::move(obj));
    }
  };
  // Zone surgery can hand a host (part of) the very range it hosts — a
  // sibling merge shortens its PeerID, a takeover relocates it. Such a
  // delegation dissolves back to the structural owners (handoffs record
  // the transfers; the host's own share moves locally for free), restoring
  // the host-disjointness invariant. Runs after the tree is final.
  auto reconcile_hosted = [this, &record_handoff] {
    for (auto it = delegations_.begin(); it != delegations_.end();) {
      Delegation& d = it->second;
      const KautzString& host_id = ids_[d.host];
      if (!host_id.is_prefix_of(d.range) && !d.range.is_prefix_of(host_id)) {
        ++it;
        continue;
      }
      std::map<PeerId, std::vector<std::uint64_t>> returned;
      for (StoredObject& obj : d.objects) {
        const PeerId owner = owner_of(obj.object_id);
        if (owner != d.host) {
          returned[owner].push_back(obj.payload);
        }
        stores_.push_back(store_refs_[owner], std::move(obj));
      }
      for (auto& [to, payloads] : returned) {
        record_handoff(d.host, to, std::move(payloads));
      }
      it = delegations_.erase(it);
    }
  };

  // Delegations hosted by the departing peer, resolved before the tree
  // surgery (owners are still the pre-departure ones): a graceful leave
  // hands every hosted object back to its structural owner — recorded as
  // handoffs so timed drivers price the transfers — while a crash drops
  // them with the host, exactly like the host's native store. Delegations
  // the departing peer merely *owns into* need nothing: entries are keyed
  // by range and owners are re-resolved at every use.
  if (!delegations_.empty()) {
    for (auto it = delegations_.begin(); it != delegations_.end();) {
      Delegation& d = it->second;
      if (d.host != leaving) {
        ++it;
        continue;
      }
      if (transfer) {
        std::map<PeerId, std::vector<std::uint64_t>> returned;
        for (StoredObject& obj : d.objects) {
          const PeerId owner = owner_of(obj.object_id);
          returned[owner].push_back(obj.payload);
          stores_.push_back(store_refs_[owner], std::move(obj));
        }
        for (auto& [to, payloads] : returned) {
          record_handoff(leaving, to, std::move(payloads));
        }
      } else {
        dropped += d.objects.size();
      }
      it = delegations_.erase(it);
    }
    if (report != nullptr) {
      report->objects_dropped = dropped;
    }
  }

  // A local sibling merge is only safe at maximum depth: merging a pair at
  // depth d produces a peer at d-1, and a neighbor at d+1 would then violate
  // the neighborhood invariant. A max-depth leaf is always in a leaf pair
  // and has no deeper neighbors, so the invariant survives.
  const std::size_t max_depth = tree_.depth_of(tree_.deepest_leaf());
  if (tree_.in_leaf_pair(leaving) && tree_.depth_of(leaving) == max_depth) {
    // Fusion: the sibling absorbs the parent zone.
    const PeerId sibling = tree_.pair_sibling(leaving);
    std::vector<PeerId> affected(in_of(leaving).begin(),
                                 in_of(leaving).end());
    affected.insert(affected.end(), in_of(sibling).begin(),
                    in_of(sibling).end());
    affected.push_back(sibling);

    std::vector<StoredObject> inherited = take_store(leaving);
    record_handoff(leaving, sibling, store_payloads(inherited));
    append_store(sibling, std::move(inherited));
    detach_out_edges(leaving);
    tree_.merge_pair(leaving, sibling);
    ids_[sibling] = tree_.label_of(sibling);
    drop_from_alive(leaving);
    release_peer(leaving);
    if (!delegations_.empty()) {
      reconcile_hosted();
    }
    std::vector<PeerId> rewired = refresh_neighbors(std::move(affected));
    if (report != nullptr) {
      report->origin = sibling;
      report->rewired = std::move(rewired);
    }
    return dropped;
  }

  // Takeover: merge the deepest leaf pair (A, B); B absorbs their parent
  // zone and A relocates into the leaving peer's zone.
  const PeerId a = tree_.deepest_leaf();
  ARMADA_CHECK(tree_.in_leaf_pair(a));  // a max-depth leaf's siblings are leaves
  const PeerId b = tree_.pair_sibling(a);
  ARMADA_CHECK(a != leaving && b != leaving);

  std::vector<PeerId> affected(in_of(leaving).begin(), in_of(leaving).end());
  affected.insert(affected.end(), in_of(a).begin(), in_of(a).end());
  affected.insert(affected.end(), in_of(b).begin(), in_of(b).end());
  affected.push_back(a);
  affected.push_back(b);

  std::vector<StoredObject> merged = take_store(a);
  record_handoff(a, b, store_payloads(merged));
  append_store(b, std::move(merged));
  tree_.merge_pair(a, b);
  ids_[b] = tree_.label_of(b);

  // Relocate A into the departed zone.
  tree_.replace_leaf_peer(leaving, a);
  ids_[a] = tree_.label_of(a);
  std::vector<StoredObject> relocated = take_store(leaving);
  record_handoff(leaving, a, store_payloads(relocated));
  stores_.assign(store_refs_[a], std::move(relocated));
  detach_out_edges(leaving);
  drop_from_alive(leaving);
  release_peer(leaving);
  if (!delegations_.empty()) {
    reconcile_hosted();
  }
  std::vector<PeerId> rewired = refresh_neighbors(std::move(affected));
  if (report != nullptr) {
    report->origin = a;
    report->rewired = std::move(rewired);
  }
  return dropped;
}

void FissioneNetwork::leave(PeerId peer, MembershipReport* report) {
  remove_peer(peer, true, report);
}

std::size_t FissioneNetwork::crash(PeerId peer, MembershipReport* report) {
  return remove_peer(peer, false, report);
}

PeerId FissioneNetwork::owner_of(const KautzString& object_id) const {
  return tree_.owner_of(object_id);
}

void FissioneNetwork::publish(const KautzString& object_id,
                              std::uint64_t payload) {
  ARMADA_CHECK(object_id.length() == kObjectIdLength);
  if (!delegations_.empty()) {
    // A publish into a migrated range lands at the host, keeping native
    // stores empty inside delegated ranges (the registry invariant).
    const auto it = covering_iter(object_id);
    if (it != delegations_.end()) {
      Delegation& d = it->second;
      StoredObject obj{object_id, payload};
      const auto pos =
          std::lower_bound(d.objects.begin(), d.objects.end(), obj);
      d.objects.insert(pos, std::move(obj));
      return;
    }
  }
  stores_.push_back(store_refs_[owner_of(object_id)],
                    StoredObject{object_id, payload});
}

FissioneNetwork::DelegationMap::iterator FissioneNetwork::covering_iter(
    const KautzString& object_id) {
  // Prefix-free keys: any key strictly between a prefix of `object_id` and
  // `object_id` itself would have to extend that prefix, which prefix-
  // freeness forbids. So the only candidate is the greatest key <=
  // object_id.
  auto it = delegations_.upper_bound(object_id);
  if (it == delegations_.begin()) {
    return delegations_.end();
  }
  --it;
  return it->first.is_prefix_of(object_id) ? it : delegations_.end();
}

const FissioneNetwork::Delegation* FissioneNetwork::delegation_covering(
    const KautzString& object_id) const {
  auto* self = const_cast<FissioneNetwork*>(this);
  const auto it = self->covering_iter(object_id);
  return it == delegations_.end() ? nullptr : &it->second;
}

const FissioneNetwork::Delegation* FissioneNetwork::find_delegation(
    const KautzString& range) const {
  const auto it = delegations_.find(range);
  return it == delegations_.end() ? nullptr : &it->second;
}

std::span<const StoredObject> FissioneNetwork::delegation_segment(
    const Delegation& d, const KautzString& prefix) {
  // Extensions of `prefix` sort after it and before any id diverging above
  // it, so the matching run is [first id >= prefix, first id not extending).
  const auto first = std::partition_point(
      d.objects.begin(), d.objects.end(),
      [&prefix](const StoredObject& obj) { return obj.object_id < prefix; });
  const auto last = std::partition_point(
      first, d.objects.end(), [&prefix](const StoredObject& obj) {
        return prefix.is_prefix_of(obj.object_id);
      });
  return {first, last};
}

std::vector<StoredObject> FissioneNetwork::detach_range(
    const KautzString& range) {
  ARMADA_CHECK(!range.empty() && range.length() < kObjectIdLength);
  std::vector<StoredObject> out;
  for (PeerId p : tree_.cover_of_prefix(range)) {
    // A short range covers whole zones; a deep one carves one zone. Either
    // way the peer keeps exactly the objects outside the range.
    std::vector<StoredObject> keep;
    std::vector<StoredObject> store = take_store(p);
    for (StoredObject& obj : store) {
      if (range.is_prefix_of(obj.object_id)) {
        out.push_back(std::move(obj));
      } else {
        keep.push_back(std::move(obj));
      }
    }
    stores_.assign(store_refs_[p], std::move(keep));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FissioneNetwork::delegate_range(const KautzString& range, PeerId host,
                                     std::vector<StoredObject> objects) {
  ARMADA_CHECK(!range.empty() && range.length() < kObjectIdLength);
  ARMADA_CHECK_MSG(is_alive(host), "delegation host must be alive");
  const KautzString& host_id = ids_[host];
  ARMADA_CHECK_MSG(
      !host_id.is_prefix_of(range) && !range.is_prefix_of(host_id),
      "delegation host must not own part of the range");
  for (const auto& [existing, d] : delegations_) {
    ARMADA_CHECK_MSG(
        !existing.is_prefix_of(range) && !range.is_prefix_of(existing),
        "delegated ranges must stay pairwise prefix-free");
  }
  std::sort(objects.begin(), objects.end());
  for (const StoredObject& obj : objects) {
    ARMADA_CHECK(range.is_prefix_of(obj.object_id));
  }
  delegations_.emplace(range, Delegation{range, host, std::move(objects)});
}

std::vector<StoredObject> FissioneNetwork::revoke_delegation(
    const KautzString& range) {
  const auto it = delegations_.find(range);
  ARMADA_CHECK_MSG(it != delegations_.end(), "revoking unknown delegation");
  std::vector<StoredObject> out = std::move(it->second.objects);
  delegations_.erase(it);
  return out;
}

void FissioneNetwork::set_delegation_host(const KautzString& range,
                                          PeerId host) {
  const auto it = delegations_.find(range);
  ARMADA_CHECK_MSG(it != delegations_.end(), "re-hosting unknown delegation");
  ARMADA_CHECK_MSG(is_alive(host), "delegation host must be alive");
  const KautzString& host_id = ids_[host];
  ARMADA_CHECK_MSG(
      !host_id.is_prefix_of(range) && !range.is_prefix_of(host_id),
      "delegation host must not own part of the range");
  it->second.host = host;
}

PeerId FissioneNetwork::proximity_next_hop(PeerId cur,
                                           const KautzString& object_id,
                                           const KautzString& target) const {
  // Remaining shift distance of a peer P toward the object:
  // rem(P) = |PeerID(P)| - (longest suffix of PeerID(P) prefixing the
  // object) — zero exactly at the owner. Every neighbor link (out *or* in:
  // both are maintained locally and carry overlay messages) whose endpoint
  // strictly reduces rem is a viable next hop, and because rem drops by at
  // least one per hop the walk still terminates within |PeerID(issuer)|
  // hops — the paper's delay bound. The canonical prefix-of-target
  // out-neighbor always reaches rem(cur) - 1 (its suffix extends the
  // alignment by its own extension symbols), so a viable candidate always
  // exists. Candidates with equal minimal rem are structurally equivalent;
  // we break that tie toward the cheapest link under the current latency
  // model (deterministically: first-listed neighbor on equal latency).
  // In-neighbors occasionally align *better* than the canonical hop, so the
  // flag can shorten walks as well as cheapen them.
  const KautzString& id = ids_[cur];
  const std::size_t cur_rem = id.length() - id.longest_suffix_prefix(object_id);
  PeerId best = kNoPeer;
  std::size_t best_rem = 0;
  sim::Time best_link = 0.0;
  const auto consider = [&](PeerId n) {
    const KautzString& nid = ids_[n];
    const std::size_t rem =
        nid.length() - nid.longest_suffix_prefix(object_id);
    if (rem >= cur_rem) {
      return;  // no structural progress over this link
    }
    const sim::Time link = transport_.link(cur, n);
    if (best == kNoPeer || rem < best_rem ||
        (rem == best_rem && link < best_link)) {
      best = n;
      best_rem = rem;
      best_link = link;
    }
  };
  for (PeerId n : out_of(cur)) {
    consider(n);
  }
  for (PeerId n : in_of(cur)) {
    consider(n);
  }
  ARMADA_CHECK_MSG(best != kNoPeer,
                   "proximity routing made no progress toward "
                       << target.to_string());
  return best;
}

RouteResult FissioneNetwork::route(PeerId from,
                                   const KautzString& object_id) const {
  ARMADA_CHECK(from < ids_.size() && alive(from));
  ARMADA_CHECK(object_id.length() == kObjectIdLength);

  RouteResult result;
  result.path.push_back(from);
  PeerId cur = from;
  const std::size_t hop_limit = 4 * kObjectIdLength;
  while (!ids_[cur].is_prefix_of(object_id)) {
    const KautzString& id = ids_[cur];
    const std::size_t j = id.longest_suffix_prefix(object_id);
    // Shift routing: advance to the owner of id[1..] ++ object_id[j..].
    const KautzString target =
        id.drop_front().concat(object_id.suffix(object_id.length() - j));
    PeerId next = kNoPeer;
    if (config_.proximity_next_hop) {
      next = proximity_next_hop(cur, object_id, target);
    } else {
      for (PeerId n : out_of(cur)) {
        if (ids_[n].is_prefix_of(target)) {
          next = n;
          break;
        }
      }
    }
    ARMADA_CHECK_MSG(next != kNoPeer, "routing stuck at "
                                          << id.to_string() << " toward "
                                          << object_id.to_string());
    cur = next;
    ++result.hops;
    result.path.push_back(cur);
    ARMADA_CHECK_MSG(result.hops <= hop_limit, "routing loop suspected");
  }
  result.owner = cur;
  result.latency = transport_.path_latency(result.path);
  return result;
}

std::vector<std::uint64_t> FissioneNetwork::lookup(
    PeerId from, const KautzString& object_id, RouteResult* route_out) const {
  const RouteResult r = route(from, object_id);
  std::vector<std::uint64_t> payloads;
  for (const StoredObject& obj : store_of(r.owner)) {
    if (obj.object_id == object_id) {
      payloads.push_back(obj.payload);
    }
  }
  if (const Delegation* d = delegation_covering(object_id)) {
    // Migrated key: the owner redirects to the host's copy (the routing
    // cost to the owner is unchanged; the redirect is zone-local).
    for (const StoredObject& obj : delegation_segment(*d, object_id)) {
      payloads.push_back(obj.payload);
    }
  }
  if (route_out != nullptr) {
    *route_out = r;
  }
  return payloads;
}

KautzString FissioneNetwork::kautz_hash(std::string_view key) const {
  // FNV-1a to seed, then an LCG stream picks one allowed symbol per step.
  std::uint64_t h = fnv1a64(key);
  KautzString out;
  for (std::size_t i = 0; i < kObjectIdLength; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t draw = h >> 33;
    if (i == 0) {
      out.push_back(static_cast<std::uint8_t>(draw % (kBase + 1u)));
    } else {
      out.push_back(kautz::index_symbol(draw % kBase, out.back()));
    }
  }
  return out;
}

KautzString FissioneNetwork::random_object_id() {
  return kautz::random_string(rng_, kObjectIdLength);
}

void FissioneNetwork::check_invariants() const {
  tree_.check_structure();
  ARMADA_CHECK(tree_.num_leaves() == alive_.size());
  for (PeerId id : alive_) {
    ARMADA_CHECK(alive(id));
    ARMADA_CHECK(tree_.hosts(id));
    ARMADA_CHECK_MSG(tree_.label_of(id) == ids_[id],
                     "peer " << id << " label mismatch");
    // Out-neighbors match a fresh recomputation.
    const std::span<const PeerId> out = out_of(id);
    const std::vector<PeerId> fresh = compute_out_neighbors(id);
    ARMADA_CHECK_MSG(
        std::equal(out.begin(), out.end(), fresh.begin(), fresh.end()),
        "stale out-neighbors at peer " << id);
    // Out-neighbor IDs have the form u2...ub q1...qm.
    for (PeerId n : out) {
      const KautzString& v = ids_[n];
      if (ids_[id].length() >= 2) {
        const KautzString shifted = ids_[id].drop_front();
        ARMADA_CHECK_MSG(
            shifted.is_prefix_of(v) || v.is_prefix_of(shifted),
            "edge " << ids_[id].to_string() << " -> " << v.to_string());
      }
    }
    // Transpose consistency.
    for (PeerId n : out) {
      const std::span<const PeerId> in = in_of(n);
      ARMADA_CHECK(std::find(in.begin(), in.end(), id) != in.end());
    }
    for (PeerId n : in_of(id)) {
      const std::span<const PeerId> from_n = out_of(n);
      ARMADA_CHECK(std::find(from_n.begin(), from_n.end(), id) !=
                   from_n.end());
    }
    // Objects are owned by their holder — and never inside a migrated
    // range, whose objects live at the delegation host instead.
    for (const StoredObject& obj : store_of(id)) {
      ARMADA_CHECK_MSG(ids_[id].is_prefix_of(obj.object_id),
                       "misplaced object at peer " << id);
      if (!delegations_.empty()) {
        ARMADA_CHECK_MSG(delegation_covering(obj.object_id) == nullptr,
                         "native object inside a delegated range at peer "
                             << id);
      }
    }
  }
  // Delegation registry: ranges pairwise prefix-free (sorted keys make the
  // adjacent check sufficient), hosts alive and zone-disjoint from their
  // range, contents sorted and inside the range.
  const KautzString* prev_range = nullptr;
  for (const auto& [range, d] : delegations_) {
    ARMADA_CHECK(range == d.range);
    ARMADA_CHECK(!range.empty() && range.length() < kObjectIdLength);
    ARMADA_CHECK_MSG(is_alive(d.host), "dead delegation host");
    ARMADA_CHECK(!ids_[d.host].is_prefix_of(range) &&
                 !range.is_prefix_of(ids_[d.host]));
    if (prev_range != nullptr) {
      ARMADA_CHECK_MSG(!prev_range->is_prefix_of(range),
                       "overlapping delegated ranges");
    }
    prev_range = &range;
    for (std::size_t i = 0; i < d.objects.size(); ++i) {
      ARMADA_CHECK(range.is_prefix_of(d.objects[i].object_id));
      ARMADA_CHECK(d.objects[i].object_id.length() == kObjectIdLength);
      if (i > 0) {
        ARMADA_CHECK_MSG(d.objects[i - 1] <= d.objects[i],
                         "delegation contents out of canonical order");
      }
    }
  }
}

std::size_t FissioneNetwork::max_neighbor_length_gap() const {
  std::size_t gap = 0;
  for (PeerId id : alive_) {
    const std::size_t lu = ids_[id].length();
    for (PeerId n : out_of(id)) {
      const std::size_t lv = ids_[n].length();
      gap = std::max(gap, lu > lv ? lu - lv : lv - lu);
    }
  }
  return gap;
}

double FissioneNetwork::average_degree() const {
  std::uint64_t total = 0;
  for (PeerId id : alive_) {
    total += out_of(id).size() + in_of(id).size();
  }
  return static_cast<double>(total) / static_cast<double>(alive_.size());
}

Histogram FissioneNetwork::peer_id_length_histogram() const {
  Histogram h;
  for (PeerId id : alive_) {
    h.add(static_cast<std::int64_t>(ids_[id].length()));
  }
  return h;
}

std::size_t FissioneNetwork::total_objects() const {
  std::size_t n = 0;
  for (PeerId id : alive_) {
    n += store_of(id).size();
  }
  for (const auto& [range, d] : delegations_) {
    n += d.objects.size();
  }
  return n;
}

}  // namespace armada::fissione
