#include "armada/armada.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "armada/frt_search.h"
#include "kautz/kautz_space.h"
#include "net/routed_overlay.h"
#include "util/check.h"

namespace armada::core {

using fissione::FissioneNetwork;
using fissione::PeerId;
using kautz::Box;
using kautz::Interval;
using kautz::KautzRegion;
using kautz::KautzString;

namespace {

// Shared fan state of a replicated query: every class is one branch; the
// last branch to land hands the merged result to `done`. Branch count is
// fixed *before* any class launches, because a class can complete
// synchronously (issuer-local cache hits schedule, but an issuer-is-holder
// scan runs inline).
struct Fan {
  RangeQueryResult result;
  std::uint64_t pending = 0;
  std::function<void(RangeQueryResult)> done;

  void complete() {
    ARMADA_CHECK(pending > 0);
    if (--pending == 0) {
      done(std::move(result));
    }
  }
};

// The local scan at one serving peer: every object `answers` accepts.
template <typename Answers>
FrtSearch::DestinationScan scan_of(Answers answers) {
  return [answers = std::move(answers)](PeerId, const fissione::StoreView& view,
                                        RangeQueryResult& out) {
    view.for_each([&](const fissione::StoredObject& obj) {
      if (answers(obj)) {
        out.matches.push_back(obj.payload);
        ++out.stats.results;
      }
    });
  };
}

// One zone of a top-k or k-NN walk: route from `from` to the peer owning
// `target`, charge the route to `stats` (zone visits are sequential, so
// hops and latency add up), and hand every object that peer owns to
// `visit`. Returns the visited peer.
template <typename Visit>
PeerId visit_zone(const fissione::FissioneNetwork& net, PeerId from,
                  const KautzString& target, sim::QueryStats& stats,
                  Visit&& visit) {
  const fissione::RouteResult route = net.route(from, target);
  stats.messages += route.hops;
  stats.delay += route.hops;
  stats.latency += route.latency;
  ++stats.dest_peers;
  net.for_each_owned(route.owner, visit);
  return route.owner;
}

// Which frontier a k-NN zone visit moves: both for the seed zone, one for
// a zone annexed below or above.
enum class Side { kSeed, kBelow, kAbove };

// Handles of the k least (key, handle) pairs, in ascending order.
std::vector<std::uint64_t> best_k(
    std::vector<std::pair<double, std::uint64_t>> ranked, std::size_t k) {
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::min(ranked.size(), k));
  std::vector<std::uint64_t> handles;
  handles.reserve(ranked.size());
  for (const auto& [key, handle] : ranked) {
    handles.push_back(handle);
  }
  return handles;
}

}  // namespace

double AggregateResult::mean() const {
  ARMADA_CHECK(count > 0);
  return sum / static_cast<double>(count);
}

ArmadaIndex::ArmadaIndex(fissione::FissioneNetwork& net,
                         kautz::PartitionTree tree)
    : net_(net), tree_(std::move(tree)) {}

ArmadaIndex ArmadaIndex::single(fissione::FissioneNetwork& net,
                                kautz::Interval domain) {
  return ArmadaIndex(net, kautz::PartitionTree::single(
                              FissioneNetwork::kObjectIdLength, domain));
}

ArmadaIndex ArmadaIndex::multi(fissione::FissioneNetwork& net,
                               Box domain) {
  return ArmadaIndex(
      net, kautz::PartitionTree(FissioneNetwork::kObjectIdLength,
                                std::move(domain)));
}

std::uint64_t ArmadaIndex::publish(const std::vector<double>& point) {
  return publish_point(point);
}

std::uint64_t ArmadaIndex::publish(double value) {
  return publish_point({&value, 1});
}

std::uint64_t ArmadaIndex::publish_point(std::span<const double> point) {
  const kautz::KautzString object_id = tree_.multiple_hash(point);
  const std::uint64_t handle = values_.size() / point.size();
  net_.publish(object_id, handle);
  values_.insert(values_.end(), point.begin(), point.end());
  if (replicas_ != nullptr) {
    // Currency: replica snapshots pick up the new object, cached results
    // whose subregion covers it are invalidated.
    replicas_->on_publish(object_id, handle);
  }
  return handle;
}

std::span<const double> ArmadaIndex::attributes(std::uint64_t handle) const {
  const std::size_t m = num_attributes();
  ARMADA_CHECK(handle < values_.size() / m);
  return {values_.data() + handle * m, m};
}

bool ArmadaIndex::point_in_box(std::uint64_t handle, const Box& box) const {
  const double* p = values_.data() + handle * box.size();
  for (std::size_t i = 0; i < box.size(); ++i) {
    if (p[i] < box[i].lo || p[i] > box[i].hi) {
      return false;
    }
  }
  return true;
}

RangeQueryResult ArmadaIndex::range_query(PeerId issuer, double lo,
                                          double hi) const {
  ARMADA_CHECK_MSG(num_attributes() == 1,
                   "range_query requires a single-attribute index");
  const Box box{{lo, hi}};
  return search({"pira", tree_.region_for(lo, hi), box}, issuer,
                [this, &box](const fissione::StoredObject& obj) {
                  return point_in_box(obj.payload, box);
                });
}

void ArmadaIndex::range_query_async(
    sim::Simulator& sim, PeerId issuer, double lo, double hi,
    std::function<void(RangeQueryResult)> done) const {
  ARMADA_CHECK_MSG(num_attributes() == 1,
                   "range_query requires a single-attribute index");
  // The filter owns its box copy: the query may outlive this frame.
  const Box box{{lo, hi}};
  search_async(sim, {"pira", tree_.region_for(lo, hi), box}, issuer,
               [this, box](const fissione::StoredObject& obj) {
                 return point_in_box(obj.payload, box);
               },
               std::move(done));
}

RangeQueryResult ArmadaIndex::box_query(PeerId issuer, const Box& box) const {
  ARMADA_CHECK(box.size() == tree_.num_attributes());
  return search({"mira", tree_.bounding_region(box), box, &box}, issuer,
                [this, &box](const fissione::StoredObject& obj) {
                  return point_in_box(obj.payload, box);
                });
}

std::vector<std::uint64_t> ArmadaIndex::scan_matches(const Box& box) const {
  ARMADA_CHECK(box.size() == tree_.num_attributes());
  std::vector<std::uint64_t> out;
  const std::uint64_t count = values_.size() / box.size();
  for (std::uint64_t h = 0; h < count; ++h) {
    if (point_in_box(h, box)) {
      out.push_back(h);
    }
  }
  return out;
}

TopKResult ArmadaIndex::top_k(PeerId issuer, double lo, double hi,
                              std::size_t k) const {
  ARMADA_CHECK_MSG(num_attributes() == 1,
                   "top_k requires a single-attribute index");
  ARMADA_CHECK(k >= 1);
  const KautzRegion region = tree_.region_for(lo, hi);
  TopKResult result;
  // (-value, handle): ascending order ranks the largest value first.
  std::vector<std::pair<double, std::uint64_t>> found;

  PeerId cur = issuer;
  KautzString target = region.hi();
  while (true) {
    cur = visit_zone(net_, cur, target, result.stats,
                     [&](const fissione::StoredObject& obj) {
                       if (!region.contains(obj.object_id)) {
                         return;
                       }
                       const double v = values_[obj.payload];
                       if (v >= lo && v <= hi) {
                         found.emplace_back(-v, obj.payload);
                       }
                     });
    // Every unvisited zone holds only smaller values than this zone's
    // bottom; stop once k objects are in hand or the range is exhausted.
    const KautzString zone_lo =
        kautz::min_extension(net_.peer_id(cur), tree_.k());
    if (found.size() >= k || zone_lo <= region.lo()) {
      break;
    }
    target = kautz::predecessor(zone_lo);
  }

  result.handles = best_k(std::move(found), k);
  result.stats.results = result.handles.size();
  return result;
}

KnnResult ArmadaIndex::nearest(PeerId issuer, double q, std::size_t k) const {
  ARMADA_CHECK_MSG(num_attributes() == 1,
                   "nearest requires a single-attribute index");
  ARMADA_CHECK(k >= 1);
  const Interval domain = tree_.attribute_ranges()[0];
  ARMADA_CHECK(q >= domain.lo && q <= domain.hi);

  KnnResult result;
  std::vector<std::pair<double, std::uint64_t>> candidates;  // (dist, handle)

  // Explored value interval (grows zone by zone) and its frontier strings.
  double explored_lo = q;
  double explored_hi = q;
  KautzString below;
  KautzString above;
  bool below_done = false;
  bool above_done = false;

  PeerId cur = issuer;
  auto annex = [&](const KautzString& to, Side side) {
    cur = visit_zone(net_, cur, to, result.stats,
                     [&](const fissione::StoredObject& obj) {
                       const double v = values_[obj.payload];
                       candidates.emplace_back(std::abs(v - q), obj.payload);
                     });
    const KautzString& id = net_.peer_id(cur);
    const Interval zone = tree_.interval_for(id);
    explored_lo = std::min(explored_lo, zone.lo);
    explored_hi = std::max(explored_hi, zone.hi);
    if (side != Side::kAbove) {
      const KautzString zone_lo = kautz::min_extension(id, tree_.k());
      below_done = kautz::is_space_min(zone_lo);
      if (!below_done) {
        below = kautz::predecessor(zone_lo);
      }
    }
    if (side != Side::kBelow) {
      const KautzString zone_hi = kautz::max_extension(id, tree_.k());
      above_done = kautz::is_space_max(zone_hi);
      if (!above_done) {
        above = kautz::successor(zone_hi);
      }
    }
  };

  annex(tree_.single_hash(q), Side::kSeed);
  while (true) {
    double kth = std::numeric_limits<double>::infinity();
    if (candidates.size() >= k) {
      std::nth_element(candidates.begin(),
                       candidates.begin() + static_cast<long>(k - 1),
                       candidates.end());
      kth = candidates[k - 1].first;
    }
    const double below_gap = below_done
                                 ? std::numeric_limits<double>::infinity()
                                 : q - explored_lo;
    const double above_gap = above_done
                                 ? std::numeric_limits<double>::infinity()
                                 : explored_hi - q;
    // Nothing outside the explored interval can beat the k-th candidate.
    if (kth <= std::min(below_gap, above_gap)) {
      break;
    }
    if (below_done && above_done) {
      break;  // whole domain explored
    }
    if (below_gap <= above_gap) {
      annex(below, Side::kBelow);
    } else {
      annex(above, Side::kAbove);
    }
  }

  result.handles = best_k(std::move(candidates), k);
  result.stats.results = result.handles.size();
  return result;
}

AggregateResult ArmadaIndex::range_aggregate(PeerId issuer, double lo,
                                             double hi) const {
  ARMADA_CHECK_MSG(num_attributes() == 1,
                   "range_aggregate requires a single-attribute index");
  const Box box{{lo, hi}};
  AggregateResult agg;
  const RangeQueryResult r = search(
      {.name = "pira",
       .region = tree_.region_for(lo, hi),
       .bounds = box,
       .subsystems = false},
      issuer, [this, &agg, lo, hi](const fissione::StoredObject& obj) {
        const double v = values_[obj.payload];
        if (v < lo || v > hi) {
          return false;
        }
        if (agg.count == 0) {
          agg.min = v;
          agg.max = v;
        } else {
          agg.min = std::min(agg.min, v);
          agg.max = std::max(agg.max, v);
        }
        ++agg.count;
        agg.sum += v;
        return false;  // fold locally; never ship the record
      });
  agg.stats = r.stats;
  // One folded reply flows back over every forward edge; a record-shipping
  // scheme would instead return `count` records end-to-end.
  agg.reply_messages = r.stats.messages;
  agg.records_avoided = agg.count;
  return agg;
}

replica::ReplicaSet& ArmadaIndex::enable_replication(
    replica::ReplicationConfig config) {
  replicas_ = std::make_unique<replica::ReplicaSet>(net_, config);
  return *replicas_;
}

rebalance::Rebalancer& ArmadaIndex::enable_rebalancing(
    rebalance::RebalanceConfig config) {
  rebalancer_ = std::make_unique<rebalance::Rebalancer>(net_, config);
  return *rebalancer_;
}

RangeQueryResult ArmadaIndex::search(const Spec& spec, PeerId issuer,
                                     const ObjectFilter& matches) const {
  RangeQueryResult result;
  net_.transport().run_sync([&](sim::Simulator& sim) {
    search_async(sim, spec, issuer, matches,
                 [&result](RangeQueryResult r) { result = std::move(r); });
  });
  return result;
}

// Per-class fragments of a replicated query fan into one RangeQueryResult
// with the concurrent-composition algebra (messages sum, delay/latency max,
// coverage min across branches — conservative where the combined search
// computes the exact shed fraction). Full FRT class answers (coverage == 1)
// are offered back to the issuer's result cache, so repeat queries
// short-circuit even for classes that were never replicated.
void ArmadaIndex::search_async(
    sim::Simulator& sim, const Spec& spec, PeerId issuer,
    const ObjectFilter& matches,
    std::function<void(RangeQueryResult)> done) const {
  // Trace root for the whole query: the scope below covers the synchronous
  // dispatch (rebalancer on_query migrations, replica serves, FRT class
  // starts), so all of their transport traffic attributes to this query;
  // the wrapped `done` closes the root and runs the delay-bound auditor.
  obs::TraceRecorder* rec = net_.transport().trace();
  std::uint64_t troot = 0;
  if (rec != nullptr) [[unlikely]] {
    troot = rec->maybe_begin(spec.name, issuer, sim.now());
    if (troot != 0) {
      done = [rec, troot, inner = std::move(done)](RangeQueryResult r) {
        rec->end_trace(troot, r.stats);
        inner(std::move(r));
      };
    }
  }
  const obs::TraceRecorder::Scope trace_scope =
      troot != 0 ? rec->enter(troot) : obs::TraceRecorder::Scope();

  // A detached or *disabled* subsystem keeps the query path bitwise.
  replica::ReplicaSet* rs = spec.subsystems ? replicas_.get() : nullptr;
  if (rs != nullptr && !rs->config().enabled()) {
    rs = nullptr;
  }
  rebalance::Rebalancer* rb = spec.subsystems ? rebalancer_.get() : nullptr;
  if (rb != nullptr && !rb->config().enabled()) {
    rb = nullptr;
  }

  // Paper §4.2: divide the region into subregions with common prefixes.
  // The rebalancer charges every one, including those MIRA skips below.
  std::vector<KautzRegion> subs = spec.region.split_common_prefix();
  if (rb != nullptr) {
    rb->on_query(sim, subs);
  }
  // MIRA's query box; empty for PIRA. Closures own their copies: the
  // search may outlive this frame. Init-captures (`box = box`) give them
  // non-const members, so moving a closure never copies one.
  const Box no_box;
  const Box& box = spec.box != nullptr ? *spec.box : no_box;
  if (!box.empty()) {
    // Skip first-symbol blocks whose subspace misses the box entirely.
    std::erase_if(subs, [this, &box](const KautzRegion& sub) {
      return !tree_.box_intersects(sub.common_prefix().prefix(1), box);
    });
  }
  std::vector<FrtSearchClass> classes;
  classes.reserve(subs.size());
  for (const KautzRegion& sub : subs) {
    FrtSearchClass cls;
    cls.com_t = sub.common_prefix();
    cls.viable = [this, sub, box = box](const KautzString& aligned) {
      return sub.intersects_prefix(aligned) &&
             (box.empty() || tree_.box_intersects(aligned, box));
    };
    classes.push_back(std::move(cls));
  }
  // An object answers the query iff its ObjectID lies in the query — the
  // region for PIRA, the box for MIRA — and `matches` accepts it.
  auto answers = [this, region = spec.region, box = box,
                  matches = matches](const fissione::StoredObject& obj) {
    return (box.empty() ? region.contains(obj.object_id)
                        : tree_.box_intersects(obj.object_id, box)) &&
           matches(obj);
  };

  if (rs == nullptr) {
    const FrtSearch frt(net_);
    frt.run_async(sim, issuer, std::move(classes), scan_of(std::move(answers)),
                  std::move(done));
    return;
  }

  // Popularity/placement first: this query's classes charge the tracker and
  // may push a region over the hot threshold — the placement transfers then
  // race this same query on `sim`, and since freshly placed holders are not
  // synced until their transfers arrive, this query still fans out.
  rs->on_query(sim, subs);

  // A class's cache tag is the query's value bounds plus its common
  // prefix; %.17g round-trips doubles, so equal bounds always share a tag.
  std::string base_tag = spec.name;
  for (const Interval& iv : spec.bounds) {
    char part[64];
    std::snprintf(part, sizeof(part), "|%.17g|%.17g", iv.lo, iv.hi);
    base_tag += part;
  }

  auto fan = std::make_shared<Fan>();
  fan->done = std::move(done);
  if (classes.empty()) {
    // Nothing to search; still complete from an event so `done` always
    // runs inside the simulation (mirrors FrtSearch::run_async).
    ++fan->pending;
    sim.schedule_at(sim.now(), [fan] { fan->complete(); });
    return;
  }
  fan->pending = classes.size();

  // Replica snapshots hold whole regions; the holder scan re-applies the
  // destination predicate so served answers match the FRT path exactly.
  const ObjectFilter filter = answers;
  const FrtSearch::DestinationScan scan = scan_of(std::move(answers));
  const FrtSearch frt(net_);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const KautzRegion& sub = subs[i];
    std::string tag = base_tag + "|" + sub.common_prefix().to_string();
    const bool served = rs->serve_class(
        sim, issuer, sub, tag, filter,
        [fan](sim::QueryStats frag, std::vector<std::uint64_t> matches,
              PeerId served_by) {
          overlay::fan_in(fan->result.stats, frag);
          if (served_by != fissione::kNoPeer) {
            fan->result.destinations.push_back(served_by);
            ++fan->result.stats.dest_peers;
          }
          fan->result.stats.results += matches.size();
          fan->result.matches.insert(fan->result.matches.end(),
                                     matches.begin(), matches.end());
          fan->complete();
        });
    if (served) {
      continue;
    }
    // FRT fallback, one search per class so the class's own matches are
    // identifiable for the cache fill below.
    frt.run_async(
        sim, issuer, {std::move(classes[i])}, scan,
        [fan, rs, issuer, sub, tag = std::move(tag)](RangeQueryResult r) {
          overlay::fan_in(fan->result.stats, r.stats);
          fan->result.stats.dest_peers += r.stats.dest_peers;
          fan->result.stats.results += r.stats.results;
          fan->result.destinations.insert(fan->result.destinations.end(),
                                          r.destinations.begin(),
                                          r.destinations.end());
          fan->result.matches.insert(fan->result.matches.end(),
                                     r.matches.begin(), r.matches.end());
          if (r.stats.coverage >= 1.0) {
            rs->cache_insert(issuer, tag, sub, r.matches);
          }
          fan->complete();
        });
  }
}

}  // namespace armada::core
