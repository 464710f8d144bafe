#include "armada/range_front_end.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "armada/frt_search.h"
#include "net/routed_overlay.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
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

}  // namespace

RangeFrontEnd::RangeFrontEnd(fissione::FissioneNetwork& net,
                             const kautz::PartitionTree& tree)
    : net_(net), tree_(tree) {
  ARMADA_CHECK(tree_.base() == net_.config().base);
  ARMADA_CHECK_MSG(tree_.k() == net_.config().object_id_length,
                   "naming tree depth must equal ObjectID length");
}

RangeQueryResult RangeFrontEnd::run(const Spec& spec, PeerId issuer,
                                    const ObjectFilter& matches) const {
  RangeQueryResult result;
  net_.transport().run_sync([&](sim::Simulator& sim) {
    run_async(sim, spec, issuer, matches,
              [&result](RangeQueryResult r) { result = std::move(r); });
  });
  return result;
}

void RangeFrontEnd::run_async(
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

  replica::ReplicaSet* rs = replicas_;
  if (rs != nullptr && !rs->config().enabled()) {
    rs = nullptr;  // disabled config: keep the combined search bitwise
  }
  rebalance::Rebalancer* rb = rebalancer_;
  if (rb != nullptr && !rb->config().enabled()) {
    rb = nullptr;  // disabled config: keep the query path bitwise
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
  const kautz::Box no_box;
  const kautz::Box& box = spec.box != nullptr ? *spec.box : no_box;
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
    cls.viable = [tree = &tree_, sub, box = box](const KautzString& aligned) {
      return sub.intersects_prefix(aligned) &&
             (box.empty() || tree->box_intersects(aligned, box));
    };
    classes.push_back(std::move(cls));
  }
  // An object answers the query iff its ObjectID lies in the query — the
  // region for PIRA, the box for MIRA — and the caller's filter accepts it.
  auto answers = [tree = &tree_, region = spec.region, box = box,
                  matches = matches](const fissione::StoredObject& obj) {
    return (box.empty() ? region.contains(obj.object_id)
                        : tree->box_intersects(obj.object_id, box)) &&
           matches(obj);
  };

  if (rs == nullptr) {
    const FrtSearch search(net_);
    search.run_async(sim, issuer, std::move(classes),
                     scan_of(std::move(answers)), std::move(done));
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
  for (const kautz::Interval& iv : spec.bounds) {
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
  const replica::ReplicaSet::ObjectFilter filter = answers;
  const FrtSearch::DestinationScan scan = scan_of(std::move(answers));
  const FrtSearch search(net_);
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
    search.run_async(
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
