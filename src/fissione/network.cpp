#include "fissione/network.h"

#include <algorithm>

#include "kautz/kautz_space.h"
#include "util/check.h"
#include "util/hash.h"

namespace armada::fissione {

using kautz::kBase;
using kautz::KautzString;

namespace {

/// The other half of `label`'s parent zone: the same parent extended by the
/// one allowed symbol that is not label's last. Requires label.length() >=
/// 2 (the root has three children).
KautzString sibling_label(KautzString label) {
  const std::uint8_t own = label.back();
  label.pop_back();
  label.push_back(kautz::index_symbol(
      1 - kautz::symbol_index(own, label.back()), label.back()));
  return label;
}

/// The entry of a map with prefix-free keys whose key prefixes `s`, or
/// end(). Any key strictly between a prefix of `s` and `s` itself would
/// have to extend that prefix, which prefix-freeness forbids, so the only
/// candidate is the greatest key not above `s`: one probe, no scan.
template <typename Map>
auto covering_entry(Map& map, const KautzString& s) {
  auto it = map.upper_bound(s);
  if (it == map.begin()) {
    return map.end();
  }
  --it;
  return it->first.is_prefix_of(s) ? it : map.end();
}

}  // namespace

FissioneNetwork::FissioneNetwork(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      peers_(kBase + 1u),
      in_lists_(kBase + 1u),
      alive_pos_(kBase + 1u) {
  for (std::uint8_t c = 0; c <= kBase; ++c) {
    KautzString label;
    label.push_back(c);
    assign_zone(c, label);
    peers_[c].alive = true;
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
  // One allocation per column, not a doubling trail of copies.
  peers_.reserve(n);
  in_lists_.reserve(n);
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
  ARMADA_CHECK(is_alive(id));
  return Peer{peers_[id].id, out_neighbors(id), in_neighbors(id), store_of(id)};
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
  peers_.emplace_back();
  in_lists_.emplace_back();
  alive_pos_.push_back(0);
  return static_cast<PeerId>(peers_.size() - 1);
}

void FissioneNetwork::release_peer(PeerId id) {
  stores_.release(peers_[id].store);
  peers_[id] = PeerRecord{};
  in_lists_[id] = InList{};
  free_ids_.push_back(id);
  if (service_load_ != nullptr) {
    // The id will be recycled: a joiner must not inherit this peer's
    // service history (it would look instantly hot to the rebalancer).
    service_load_->reset(id);
  }
}

void FissioneNetwork::assign_zone(PeerId id, const KautzString& label) {
  peers_[id].id = label;
  zones_.insert_or_assign(label, id);
}

PeerId FissioneNetwork::deepest_peer() const {
  // A released id's PeerID is empty, so the scan skips it.
  PeerId best = kNoPeer;
  std::size_t best_len = 0;
  for (PeerId p = 0; p < peers_.size(); ++p) {
    if (peers_[p].id.length() > best_len) {
      best = p;
      best_len = peers_[p].id.length();
    }
  }
  ARMADA_CHECK(best != kNoPeer);
  return best;
}

PeerId FissioneNetwork::pair_sibling(PeerId p) const {
  const KautzString& label = peers_[p].id;
  if (label.length() < 2) {
    return kNoPeer;
  }
  const auto it = zones_.find(sibling_label(label));
  return it == zones_.end() ? kNoPeer : it->second;
}

std::vector<StoredObject> FissioneNetwork::take_store(PeerId id) {
  const std::span<StoredObject> sp = stores_.mut_view(peers_[id].store);
  std::vector<StoredObject> out;
  out.reserve(sp.size());
  for (StoredObject& obj : sp) {
    out.push_back(std::move(obj));
  }
  stores_.clear(peers_[id].store);
  return out;
}

std::vector<PeerId> FissioneNetwork::compute_out_neighbors(PeerId id) const {
  // Covers come in PeerID order, and so does their concatenation over
  // increasing first symbols: the out-list is sorted by PeerID.
  const KautzString& u = peers_[id].id;
  if (u.length() > 1) {
    return cover_of_prefix(u.drop_front());
  }
  // K(2,1) edges: U = u1 -> beta for every beta != u1.
  std::vector<PeerId> out;
  for (std::uint8_t beta = 0; beta <= kBase; ++beta) {
    if (beta == u.digit(0)) {
      continue;
    }
    KautzString prefix;
    prefix.push_back(beta);
    for (PeerId p : cover_of_prefix(prefix)) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<PeerId> FissioneNetwork::refresh_neighbors(
    std::vector<PeerId> affected) {
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  std::vector<PeerId> refreshed;
  for (PeerId p : affected) {
    if (is_alive(p)) {
      refreshed.push_back(p);
    }
  }
  // Two passes, so no in-list ever holds a third entry; each still ends as
  // its untouched entries, then the refreshed peers in PeerId order.
  for (PeerId p : refreshed) {
    detach_out_edges(p);
  }
  for (PeerId p : refreshed) {
    const std::vector<PeerId> fresh = compute_out_neighbors(p);
    ARMADA_CHECK_MSG(fresh.size() <= kMaxOutDegree,
                     "out-degree " << fresh.size() << " at peer " << p);
    PeerRecord& rec = peers_[p];
    std::copy(fresh.begin(), fresh.end(), rec.out.begin());
    rec.out_count = static_cast<std::uint8_t>(fresh.size());
    for (PeerId t : fresh) {  // never t == p: Kautz, no self-loops
      InList& in = in_lists_[t];
      ARMADA_CHECK_MSG(in.count < kMaxInDegree,
                       "in-degree past " << kMaxInDegree << " at peer " << t);
      in.ids[in.count++] = p;
    }
  }
  return refreshed;
}

void FissioneNetwork::detach_out_edges(PeerId p) {
  // A released peer's in-list is empty, so a dead out-neighbor is a no-op.
  for (PeerId t : out_neighbors(p)) {
    InList& in = in_lists_[t];
    const auto last = std::remove(in.ids.begin(), in.ids.begin() + in.count, p);
    in.count = static_cast<std::uint8_t>(last - in.ids.begin());
  }
}

PeerId FissioneNetwork::walk_to_local_min(PeerId start, std::uint32_t* hops,
                                          double* latency) const {
  PeerId cur = start;
  for (;;) {
    PeerId best = cur;
    std::size_t best_len = peers_[cur].id.length();
    auto consider = [&](PeerId cand) {
      if (peers_[cand].id.length() < best_len) {
        best = cand;
        best_len = peers_[cand].id.length();
      }
    };
    for (PeerId n : out_neighbors(cur)) {
      consider(n);
    }
    for (PeerId n : in_neighbors(cur)) {
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
  const std::span<const PeerId> in_victim = in_neighbors(victim);
  std::vector<PeerId> affected(in_victim.begin(), in_victim.end());
  affected.push_back(victim);

  // Fission: the victim keeps the smaller child zone, the joiner takes the
  // larger.
  const PeerId joiner = allocate_peer();
  const KautzString parent = peers_[victim].id;
  zones_.erase(parent);
  KautzString smaller = parent;
  smaller.push_back(kautz::index_symbol(0, parent.back()));
  KautzString larger = parent;
  larger.push_back(kautz::index_symbol(1, parent.back()));
  assign_zone(victim, smaller);
  assign_zone(joiner, larger);
  peers_[joiner].alive = true;
  alive_pos_[joiner] = alive_.size();
  alive_.push_back(joiner);

  // Redistribute the victim's objects between the two halves. The store is
  // materialized out of the arena first: pushing the joiner's half back in
  // can grow the pool, which would invalidate a live span of the source.
  std::vector<StoredObject> old_store = take_store(victim);
  std::vector<StoredObject> keep;
  std::vector<std::uint64_t> moved;
  for (StoredObject& obj : old_store) {
    if (smaller.is_prefix_of(obj.object_id)) {
      keep.push_back(std::move(obj));
    } else {
      moved.push_back(obj.payload);
      stores_.push_back(peers_[joiner].store, std::move(obj));
    }
  }
  stores_.assign(peers_[victim].store, std::move(keep));

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
  ARMADA_CHECK(is_alive(leaving));
  ARMADA_CHECK_MSG(num_peers() > kBase + 1u,
                   "cannot drop below the bootstrap size");

  std::size_t dropped = 0;
  if (!transfer) {
    dropped = store_of(leaving).size();
    stores_.clear(peers_[leaving].store);
  }
  if (report != nullptr) {
    report->objects_dropped = dropped;
  }

  auto record_handoff = [report](PeerId from, PeerId to,
                                 std::vector<std::uint64_t> payloads) {
    if (report != nullptr && !payloads.empty()) {
      report->handoffs.push_back(
          MembershipReport::Handoff{from, to, std::move(payloads)});
    }
  };
  // Return a delegation's objects to their structural owners, recording one
  // handoff per owner; the host's own share moves locally for free.
  auto dissolve = [this, &record_handoff](Delegation& d) {
    std::map<PeerId, std::vector<std::uint64_t>> returned;
    for (StoredObject& obj : d.objects) {
      const PeerId owner = owner_of(obj.object_id);
      if (owner != d.host) {
        returned[owner].push_back(obj.payload);
      }
      stores_.push_back(peers_[owner].store, std::move(obj));
    }
    for (auto& [to, payloads] : returned) {
      record_handoff(d.host, to, std::move(payloads));
    }
  };
  // Delegations hosted by the departing peer, resolved before the zone
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
        dissolve(d);  // a host owns no part of its range: every object moves
      } else {
        dropped += d.objects.size();
      }
      it = delegations_.erase(it);
    }
    if (report != nullptr) {
      report->objects_dropped = dropped;
    }
  }

  // Every departure fuses one sibling pair (loser, winner) into its parent
  // zone, which the winner takes. Fusion is only safe at maximum depth:
  // fusing a pair at depth d leaves a peer at d-1, and a neighbor at d+1
  // would then violate the neighborhood invariant. A max-depth zone's
  // sibling is always a zone too, and it has no deeper neighbors, so the
  // invariant survives. The pair is the leaving peer's own when it is at
  // maximum depth; otherwise it is the deepest pair, and the loser then
  // takes over the departed zone (a takeover).
  const PeerId deepest = deepest_peer();
  const PeerId sibling = pair_sibling(leaving);
  const bool own_pair =
      sibling != kNoPeer &&
      peers_[leaving].id.length() == peers_[deepest].id.length();
  const PeerId loser = own_pair ? leaving : deepest;
  const PeerId winner = own_pair ? sibling : pair_sibling(deepest);
  ARMADA_CHECK(winner != kNoPeer);  // a max-depth zone's sibling is a zone
  ARMADA_CHECK(own_pair || (loser != leaving && winner != leaving));

  // Whose out-lists can change: the in-neighbors of every peer whose zone
  // moves, plus the pair (refresh_neighbors dedups and skips the departed).
  std::vector<PeerId> affected;
  for (PeerId p : {leaving, loser, winner}) {
    affected.insert(affected.end(), in_neighbors(p).begin(),
                    in_neighbors(p).end());
  }
  affected.push_back(loser);
  affected.push_back(winner);

  std::vector<StoredObject> merged = take_store(loser);
  record_handoff(loser, winner, store_payloads(merged));
  for (StoredObject& obj : merged) {
    stores_.push_back(peers_[winner].store, std::move(obj));
  }
  const KautzString& winner_id = peers_[winner].id;
  zones_.erase(peers_[loser].id);
  zones_.erase(winner_id);
  assign_zone(winner, winner_id.prefix(winner_id.length() - 1));
  if (!own_pair) {
    assign_zone(loser, peers_[leaving].id);
    std::vector<StoredObject> relocated = take_store(leaving);
    record_handoff(leaving, loser, store_payloads(relocated));
    stores_.assign(peers_[loser].store, std::move(relocated));
  }

  detach_out_edges(leaving);
  const std::size_t pos = alive_pos_[leaving];
  alive_[pos] = alive_.back();
  alive_pos_[alive_[pos]] = pos;
  alive_.pop_back();
  release_peer(leaving);

  // The surgery can hand a host (part of) the very range it hosts — the
  // fusion shortens the winner's PeerID, a takeover relocates the loser.
  // Such a delegation dissolves back to the structural owners, restoring
  // the host-disjointness invariant.
  for (auto it = delegations_.begin(); it != delegations_.end();) {
    Delegation& d = it->second;
    const KautzString& host_id = peers_[d.host].id;
    if (!host_id.is_prefix_of(d.range) && !d.range.is_prefix_of(host_id)) {
      ++it;
      continue;
    }
    dissolve(d);
    it = delegations_.erase(it);
  }
  std::vector<PeerId> rewired = refresh_neighbors(std::move(affected));
  if (report != nullptr) {
    // The repair radiates from the peer now holding the departed zone.
    report->origin = own_pair ? winner : loser;
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

PeerId FissioneNetwork::owner_of(const KautzString& s) const {
  // The PeerIDs cover the space, so none prefixes `s` exactly when some
  // PeerID extends it.
  const auto it = covering_entry(zones_, s);
  ARMADA_CHECK_MSG(it != zones_.end(),
                   "string " << s.to_string() << " too short to resolve");
  return it->second;
}

std::vector<PeerId> FissioneNetwork::cover_of_prefix(
    const KautzString& prefix) const {
  // The PeerIDs extending `prefix` form one sorted run from the first key
  // not below it; when the run is empty, a PeerID prefixes `prefix` and
  // covers all of it.
  std::vector<PeerId> out;
  auto it = zones_.lower_bound(prefix);
  for (; it != zones_.end() && prefix.is_prefix_of(it->first); ++it) {
    out.push_back(it->second);
  }
  if (out.empty()) {
    out.push_back(owner_of(prefix));
  }
  return out;
}

void FissioneNetwork::publish(const KautzString& object_id,
                              std::uint64_t payload) {
  ARMADA_CHECK(object_id.length() == kObjectIdLength);
  if (!delegations_.empty()) {
    // A publish into a migrated range lands at the host, keeping native
    // stores empty inside delegated ranges (the registry invariant).
    const auto it = covering_entry(delegations_, object_id);
    if (it != delegations_.end()) {
      Delegation& d = it->second;
      StoredObject obj{object_id, payload};
      const auto pos =
          std::lower_bound(d.objects.begin(), d.objects.end(), obj);
      d.objects.insert(pos, std::move(obj));
      return;
    }
  }
  stores_.push_back(peers_[owner_of(object_id)].store,
                    StoredObject{object_id, payload});
}

const FissioneNetwork::Delegation* FissioneNetwork::delegation_covering(
    const KautzString& object_id) const {
  const auto it = covering_entry(delegations_, object_id);
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
  for (PeerId p : cover_of_prefix(range)) {
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
    stores_.assign(peers_[p].store, std::move(keep));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FissioneNetwork::delegate_range(const KautzString& range, PeerId host,
                                     std::vector<StoredObject> objects) {
  ARMADA_CHECK(!range.empty() && range.length() < kObjectIdLength);
  ARMADA_CHECK_MSG(is_alive(host), "delegation host must be alive");
  const KautzString& host_id = peers_[host].id;
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
  const KautzString& host_id = peers_[host].id;
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
  const KautzString& id = peers_[cur].id;
  const std::size_t cur_rem = id.length() - id.longest_suffix_prefix(object_id);
  PeerId best = kNoPeer;
  std::size_t best_rem = 0;
  sim::Time best_link = 0.0;
  const auto consider = [&](PeerId n) {
    const KautzString& nid = peers_[n].id;
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
  for (PeerId n : out_neighbors(cur)) {
    consider(n);
  }
  for (PeerId n : in_neighbors(cur)) {
    consider(n);
  }
  ARMADA_CHECK_MSG(best != kNoPeer,
                   "proximity routing made no progress toward "
                       << target.to_string());
  return best;
}

RouteResult FissioneNetwork::route(PeerId from,
                                   const KautzString& object_id) const {
  ARMADA_CHECK(is_alive(from));
  ARMADA_CHECK(object_id.length() == kObjectIdLength);

  RouteResult result;
  result.path.push_back(from);
  PeerId cur = from;
  const std::size_t hop_limit = 4 * kObjectIdLength;
  while (!peers_[cur].id.is_prefix_of(object_id)) {
    const PeerRecord& rec = peers_[cur];
    const KautzString& id = rec.id;
    const std::size_t j = id.longest_suffix_prefix(object_id);
    // Shift routing: advance to the owner of id[1..] ++ object_id[j..].
    const KautzString target =
        id.drop_front().concat(object_id.suffix(object_id.length() - j));
    PeerId next = kNoPeer;
    if (config_.proximity_next_hop) {
      next = proximity_next_hop(cur, object_id, target);
    } else {
      for (std::uint8_t i = 0; i < rec.out_count; ++i) {
        if (peers_[rec.out[i]].id.is_prefix_of(target)) {
          next = rec.out[i];
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
  // The zone index is exactly the alive PeerIDs, and they partition the
  // space: no key prefixes the next one (in sorted order that makes them
  // prefix-free), and the ObjectIDs their zones hold add up to all of them.
  ARMADA_CHECK(zones_.size() == alive_.size());
  const std::uint64_t space = kautz::space_size(kObjectIdLength);
  std::uint64_t covered = 0;
  const KautzString* prev_label = nullptr;
  for (const auto& [label, id] : zones_) {
    ARMADA_CHECK_MSG(is_alive(id) && peer_id(id) == label,
                     "zone " << label.to_string() << " maps to peer " << id);
    ARMADA_CHECK_MSG(prev_label == nullptr || !prev_label->is_prefix_of(label),
                     "zone " << prev_label->to_string() << " prefixes "
                             << label.to_string());
    prev_label = &label;
    covered += space / kautz::space_size(label.length());
  }
  ARMADA_CHECK_MSG(covered == space,
                   "zones hold " << covered << " of " << space << " ObjectIDs");
  // The alive flags mark exactly the peers alive_ lists.
  ARMADA_CHECK(static_cast<std::size_t>(std::count_if(
                   peers_.begin(), peers_.end(),
                   [](const PeerRecord& r) { return r.alive; })) ==
               alive_.size());
  for (PeerId id : alive_) {
    ARMADA_CHECK(is_alive(id) && alive_[alive_pos_[id]] == id);
    const KautzString& u = peer_id(id);
    const std::span<const PeerId> out = out_neighbors(id);
    if (u.length() == 1) {
      // K(2,1): the out-list is the covers of the other two symbols.
      const std::vector<PeerId> fresh = compute_out_neighbors(id);
      ARMADA_CHECK_MSG(
          std::equal(out.begin(), out.end(), fresh.begin(), fresh.end()),
          "stale out-neighbors at peer " << id);
    } else {
      // The out-list is cover_of_prefix(s) for s = u2...ub, checked against
      // the partition validated above: alive peers (so zones) in strict
      // PeerID order, each comparable with s, that are either the one zone
      // prefixing s or zones extending s whose ObjectIDs add up to s's —
      // which, the zones being disjoint, makes them all such zones.
      const KautzString s = u.drop_front();
      std::uint64_t held = 0;
      const KautzString* prev = nullptr;
      for (PeerId n : out) {
        ARMADA_CHECK_MSG(is_alive(n),
                         "dead out-neighbor " << n << " at peer " << id);
        const KautzString& v = peer_id(n);
        ARMADA_CHECK_MSG(prev == nullptr || *prev < v,
                         "out-neighbors out of order at peer " << id);
        ARMADA_CHECK_MSG(s.is_prefix_of(v) || v.is_prefix_of(s),
                         "edge " << u.to_string() << " -> " << v.to_string());
        prev = &v;
        held += space / kautz::space_size(v.length());
      }
      const bool owner = out.size() == 1 && peer_id(out[0]).is_prefix_of(s);
      ARMADA_CHECK_MSG(
          owner || held == space / kautz::space_size(s.length()),
          "stale out-neighbors at peer " << id);
    }
    // Transpose consistency, within the degree bounds and with no
    // duplicate in-edge.
    const std::span<const PeerId> in = in_neighbors(id);
    ARMADA_CHECK(out.size() <= kMaxOutDegree && in.size() <= kMaxInDegree);
    for (PeerId n : out) {
      const std::span<const PeerId> in_n = in_neighbors(n);
      ARMADA_CHECK(std::find(in_n.begin(), in_n.end(), id) != in_n.end());
    }
    for (PeerId n : in) {
      ARMADA_CHECK_MSG(std::count(in.begin(), in.end(), n) == 1,
                       "duplicate in-neighbor at peer " << id);
      const std::span<const PeerId> from_n = out_neighbors(n);
      ARMADA_CHECK(std::find(from_n.begin(), from_n.end(), id) !=
                   from_n.end());
    }
    // Objects are owned by their holder — and never inside a migrated
    // range, whose objects live at the delegation host instead.
    for (const StoredObject& obj : store_of(id)) {
      ARMADA_CHECK_MSG(u.is_prefix_of(obj.object_id),
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
    ARMADA_CHECK(!peer_id(d.host).is_prefix_of(range) &&
                 !range.is_prefix_of(peer_id(d.host)));
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
    const std::size_t lu = peer_id(id).length();
    for (PeerId n : out_neighbors(id)) {
      const std::size_t lv = peer_id(n).length();
      gap = std::max(gap, lu > lv ? lu - lv : lv - lu);
    }
  }
  return gap;
}

double FissioneNetwork::average_degree() const {
  std::uint64_t total = 0;
  for (PeerId id : alive_) {
    total += out_neighbors(id).size() + in_neighbors(id).size();
  }
  return static_cast<double>(total) / static_cast<double>(alive_.size());
}

Histogram FissioneNetwork::peer_id_length_histogram() const {
  Histogram h;
  for (PeerId id : alive_) {
    h.add(static_cast<std::int64_t>(peer_id(id).length()));
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
