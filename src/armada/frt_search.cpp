#include "armada/frt_search.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
using kautz::KautzString;

std::size_t FrtSearch::start_alignment(const KautzString& peer_id,
                                       const KautzString& com_t) {
  // The longest suffix of the PeerID that prefixes com_t — exactly the
  // packed single-word alignment loop, no per-candidate slice temporaries.
  return peer_id.longest_suffix_prefix(com_t);
}

namespace {

// Shed count of a branch whose message serves exactly one destination.
constexpr auto kOneDestination = [] { return std::uint64_t{1}; };

// Shared state of one in-flight search. Kept alive by the arrival closures;
// `pending` counts scheduled arrivals not yet processed, so the last one to
// land finalises coverage and hands the result to `done`.
//
// Forwarded messages travel through the network's Transport, so each hop
// arrives after its link latency: `delay` stays the paper's hop count
// (depth in the forwarding tree) while `latency` is the simulated arrival
// time relative to the search's start. Under ConstantHop on a fresh
// simulator the two coincide exactly.
struct Search {
  fissione::FissioneNetwork* net;
  sim::Simulator* sim;
  std::vector<FrtSearchClass> classes;
  FrtSearch::DestinationScan on_destination;
  std::function<void(RangeQueryResult)> done;
  RangeQueryResult result;
  sim::Time start = 0.0;
  std::uint64_t pending = 0;
  std::uint64_t shed_destinations = 0;
  // Trace context captured at run_async: the class-start events below are
  // scheduled directly (not through a Transport delivery), so they re-enter
  // the enclosing query's span themselves. The search never begins traces —
  // roots belong to ArmadaIndex and the drivers.
  obs::TraceRecorder* trace = nullptr;
  std::uint64_t ctx = 0;

  // One same-depth stand-in message for a delegated piece of a destination
  // zone: `host` serves the contents of `range` restricted to `segment`
  // (the destination's zone for a covering delegation, the whole range for
  // a sub-delegation).
  struct HostMsg {
    PeerId host;
    KautzString range;
    KautzString segment;
  };

  // How one structural destination is actually served under the live
  // delegation registry, resolved by the forwarding parent at dispatch.
  struct ServePlan {
    bool native = true;            ///< any viable undelegated targets left?
    std::vector<HostMsg> hosts;    ///< viable delegated pieces
    std::vector<KautzString> excluded;  ///< ranges the native scan skips
  };

  // Does `cls` keep viable targets under `p` outside the delegated ranges?
  // Structural recursion that only descends where a delegated range lies
  // deeper, so depth is bounded by the deepest delegated range.
  bool native_viable(const FrtSearchClass& cls, const KautzString& p,
                     const std::vector<KautzString>& delegated) const {
    bool deeper = false;
    for (const KautzString& r : delegated) {
      if (r == p) {
        return false;
      }
      deeper = deeper || (p.is_prefix_of(r) && r.length() > p.length());
    }
    if (!cls.viable(p)) {
      return false;  // viability is hereditary: nothing below either
    }
    if (!deeper) {
      return true;
    }
    for (std::uint8_t s = 0; s <= kautz::kBase; ++s) {
      if (!p.can_append(s)) {
        continue;
      }
      KautzString child = p;
      child.push_back(s);
      if (native_viable(cls, child, delegated)) {
        return true;
      }
    }
    return false;
  }

  // Serving plan for the destination whose PeerID is `dest_id`. Only
  // called while the registry is non-empty.
  ServePlan resolve_plan(const FrtSearchClass& cls,
                         const KautzString& dest_id) const {
    ServePlan plan;
    if (const auto* d = net->delegation_covering(dest_id)) {
      // The whole zone migrated: full redirect, nothing native remains.
      plan.native = false;
      plan.hosts.push_back(HostMsg{d->host, d->range, dest_id});
      return plan;
    }
    std::vector<KautzString> under;  // delegated ranges inside the zone
    const auto& delegations = net->delegations();
    for (auto it = delegations.lower_bound(dest_id);
         it != delegations.end() && dest_id.is_prefix_of(it->first); ++it) {
      under.push_back(it->first);
      if (cls.viable(it->first)) {
        plan.hosts.push_back(
            HostMsg{it->second.host, it->first, it->first});
        plan.excluded.push_back(it->first);
      }
    }
    if (!under.empty()) {
      plan.native = native_viable(cls, dest_id, under);
    }
    return plan;
  }

  // Exact destination count of the subtree rooted at (b, aligned_len): a
  // structural recursion over the overlay graph, no messages. Sibling
  // branches partition the target space, so this is precisely what an
  // admission shed of the branch gives up. Under active delegations a
  // destination resolves into its serving plan's message count, matching
  // what dispatch would send.
  std::uint64_t subtree_destinations(const FrtSearchClass& cls, PeerId b,
                                     std::size_t aligned_len) const {
    const KautzString& id = net->peer_id(b);
    const std::size_t len = id.length();
    if (aligned_len == len) {
      if (!net->has_delegations()) {
        return 1;
      }
      const ServePlan plan = resolve_plan(cls, id);
      return (plan.native ? 1u : 0u) + plan.hosts.size();
    }
    std::uint64_t total = 0;
    for (PeerId c : net->out_neighbors(b)) {
      const KautzString& cid = net->peer_id(c);
      const std::size_t m = cid.length() + 1 - len;
      const KautzString aligned = cid.suffix(aligned_len + m);
      if (cls.viable(aligned)) {
        total += subtree_destinations(cls, c, aligned_len + m);
      }
    }
    return total;
  }

  // Arrival processing at a (native) destination: scan the live owner-side
  // view — the native store plus the slices of every delegation covering
  // the zone, minus the ranges this dispatch already routed to hosts. A
  // cutover landing between dispatch and arrival is thereby served from
  // its delegation (nothing dropped); pieces with in-flight host messages
  // are skipped (nothing double-counted).
  void arrive_destination(PeerId b, std::uint32_t hops,
                          const std::vector<KautzString>& excluded) {
    result.destinations.push_back(b);
    ++result.stats.dest_peers;
    result.stats.delay =
        std::max(result.stats.delay, static_cast<double>(hops));
    result.stats.latency = std::max(result.stats.latency, sim->now() - start);
    if (trace != nullptr) {
      trace->annotate(obs::kFlagServe);
    }
    ARMADA_CHECK(net->is_alive(b));
    fissione::StoreView view(net->store_of(b));
    if (net->has_delegations()) {
      net->visit_delegation_slices(
          net->peer_id(b),
          [&view, &excluded](const KautzString& range,
                             std::span<const fissione::StoredObject> slice) {
            if (slice.empty()) {
              return;
            }
            for (const KautzString& ex : excluded) {
              if (ex == range) {
                return;
              }
            }
            view.extra.push_back(slice);
          });
    }
    on_destination(b, view, result);
  }

  // Arrival at a delegation host: serve whatever the range holds *now*.
  // The range is captured by value — if the delegation was revoked while
  // the message flew (host churn races), the scan finds nothing and the
  // answer degrades to a subset, exactly like other churn races.
  void arrive_host(PeerId host, const KautzString& range,
                   const KautzString& segment, std::uint32_t hops) {
    result.destinations.push_back(host);
    ++result.stats.dest_peers;
    result.stats.delay =
        std::max(result.stats.delay, static_cast<double>(hops));
    result.stats.latency = std::max(result.stats.latency, sim->now() - start);
    if (trace != nullptr) {
      trace->annotate(obs::kFlagServe);
    }
    fissione::StoreView view;
    if (const auto* d = net->find_delegation(range)) {
      view.native = fissione::FissioneNetwork::delegation_segment(*d, segment);
    }
    on_destination(host, view, result);
  }

  // Send one query-lane message of the search through the transport's
  // sender policy. `lost_if_shed()` counts the destinations this branch
  // gives up under admission shedding; it runs only when the branch is
  // shed, since the count can walk a whole subtree. `on_arrival` runs at
  // the receiver.
  template <typename Lost, typename Fn>
  void send(const std::shared_ptr<Search>& self, PeerId from, PeerId to,
            Lost&& lost_if_shed, Fn&& on_arrival) {
    const auto sent = net->transport().send_query(
        *sim, from, to, result.stats,
        [self, to, fn = std::forward<Fn>(on_arrival)](sim::Time qd) {
          self->net->record_service(to);
          self->result.stats.queue_delay += qd;
          fn();
          self->complete();
        });
    if (sent) {
      ++pending;
    } else {
      shed_destinations += lost_if_shed();
    }
  }

  void step(const std::shared_ptr<Search>& self, std::size_t cls_idx, PeerId b,
            std::size_t aligned_len, std::uint32_t hops) {
    const FrtSearchClass& cls = classes[cls_idx];
    ARMADA_CHECK(net->is_alive(b));
    const std::size_t len = net->peer_id(b).length();
    if (aligned_len == len) {
      // The whole PeerID prefixes a viable target leaf: destination. (Only
      // reached without a dispatch-time split: at the issuer, or when no
      // delegation intersected the zone at dispatch — so nothing is
      // excluded from the arrival-time view.)
      arrive_destination(b, hops, {});
      return;
    }
    ARMADA_CHECK(aligned_len < len);
    for (PeerId c : net->out_neighbors(b)) {
      const KautzString& cid = net->peer_id(c);
      // C = u2...ub ++ Y with |Y| = m in {0,1,2} (neighborhood invariant).
      ARMADA_CHECK(cid.length() + 1 >= len);
      const std::size_t m = cid.length() + 1 - len;
      const KautzString aligned = cid.suffix(aligned_len + m);
      if (!cls.viable(aligned)) {
        continue;
      }
      const std::size_t al = aligned_len + m;
      if (al == cid.length() && net->has_delegations()) {
        // Destination child under an active registry: split the last hop
        // per the serving plan. Host stand-ins fly at the same depth, so
        // the delay bound is untouched.
        ServePlan plan = resolve_plan(cls, cid);
        if (!plan.native || !plan.hosts.empty()) {
          if (trace != nullptr) {
            trace->annotate(obs::kFlagDelegationSplit);
          }
          if (plan.native) {
            send(self, b, c, kOneDestination,
                 [self, c, hops, excluded = std::move(plan.excluded)] {
                   self->arrive_destination(c, hops + 1, excluded);
                 });
          }
          for (HostMsg& msg : plan.hosts) {
            if (msg.host == b) {
              // The forwarding peer itself hosts the piece; it already
              // holds the query, so it serves locally with no stand-in
              // message.
              arrive_host(b, msg.range, msg.segment, hops);
              continue;
            }
            send(self, b, msg.host, kOneDestination,
                 [self, host = msg.host, range = std::move(msg.range),
                  segment = std::move(msg.segment), hops] {
                   self->arrive_host(host, range, segment, hops + 1);
                 });
          }
          continue;
        }
      }
      send(self, b, c,
           [this, &cls, c, al] { return subtree_destinations(cls, c, al); },
           [self, cls_idx, c, al, hops] {
             self->step(self, cls_idx, c, al, hops + 1);
           });
    }
  }

  // Callers hold the context alive via their captured shared_ptr for the
  // whole call, including the final `done` callback.
  void complete() {
    ARMADA_CHECK(pending > 0);
    if (--pending > 0) {
      return;
    }
    const std::uint64_t reached = result.stats.dest_peers;
    result.stats.coverage =
        shed_destinations == 0
            ? 1.0
            : static_cast<double>(reached) /
                  static_cast<double>(reached + shed_destinations);
    done(std::move(result));
  }
};

}  // namespace

void FrtSearch::run_async(
    sim::Simulator& sim, PeerId issuer, std::vector<FrtSearchClass> classes,
    DestinationScan on_destination,
    std::function<void(RangeQueryResult)> done) const {
  for (const FrtSearchClass& cls : classes) {
    ARMADA_CHECK_MSG(!cls.com_t.empty(), "search class without common prefix");
  }
  auto search = std::make_shared<Search>();
  search->net = &net_;
  search->sim = &sim;
  search->classes = std::move(classes);
  search->on_destination = std::move(on_destination);
  search->done = std::move(done);
  search->start = sim.now();
  search->trace = net_.transport().trace();
  search->ctx = search->trace != nullptr ? search->trace->context() : 0;
  if (search->classes.empty()) {
    // Nothing to search; still complete from an event so `done` always
    // runs inside the simulation.
    ++search->pending;
    sim.schedule_at(sim.now(), [search] { search->complete(); });
    return;
  }
  const KautzString& issuer_id = net_.peer_id(issuer);
  for (std::size_t i = 0; i < search->classes.size(); ++i) {
    const std::size_t j0 =
        start_alignment(issuer_id, search->classes[i].com_t);
    ++search->pending;
    sim.schedule_at(sim.now(), [search, i, issuer, j0] {
      if (search->trace != nullptr && search->ctx != 0) {
        const obs::TraceRecorder::Scope scope =
            search->trace->enter(search->ctx);
        search->step(search, i, issuer, j0, 0);
      } else {
        search->step(search, i, issuer, j0, 0);
      }
      search->complete();
    });
  }
}

}  // namespace armada::core
