#include "armada/pira.h"

#include <cstdio>
#include <string>
#include <utility>

#include "armada/replicated_query.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
using kautz::KautzRegion;
using kautz::KautzString;

Pira::Pira(fissione::FissioneNetwork& net,
           const kautz::PartitionTree& tree)
    : net_(net), tree_(tree) {
  ARMADA_CHECK(tree_.num_attributes() == 1);
  ARMADA_CHECK(tree_.base() == net_.config().base);
  ARMADA_CHECK_MSG(tree_.k() == net_.config().object_id_length,
                   "naming tree depth must equal ObjectID length");
}

RangeQueryResult Pira::query(PeerId issuer, double lo, double hi,
                             const ObjectFilter& matches) const {
  RangeQueryResult result;
  net_.transport().run_sync([&](sim::Simulator& sim) {
    query_async(sim, issuer, lo, hi, matches,
                [&result](RangeQueryResult r) { result = std::move(r); });
  });
  return result;
}

void Pira::query_async(sim::Simulator& sim, PeerId issuer, double lo,
                       double hi, const ObjectFilter& matches,
                       std::function<void(RangeQueryResult)> done) const {
  const KautzRegion region = tree_.region_for(lo, hi);

  // Trace root for the whole query: the scope below covers the synchronous
  // dispatch (rebalancer on_query migrations, replica serves, FRT class
  // starts), so all of their transport traffic attributes to this query;
  // the wrapped `done` closes the root and runs the delay-bound auditor.
  obs::TraceRecorder* rec = net_.transport().trace();
  std::uint64_t troot = 0;
  if (rec != nullptr) [[unlikely]] {
    troot = rec->maybe_begin("pira", issuer, sim.now());
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

  if (rs != nullptr) {
    // Value-level queries have a canonical identity, the [lo, hi]
    // interval, which keys them in the result cache; %.17g round-trips
    // doubles, so equal intervals always share a tag.
    char cache_tag[64];
    std::snprintf(cache_tag, sizeof(cache_tag), "pira|%.17g|%.17g", lo, hi);
    // Paper §4.2 split, one ReplicatedClass per subregion: the orchestrator
    // serves each from cache/replica where possible and FRT-falls-back
    // per class otherwise.
    std::vector<KautzRegion> subs = region.split_common_prefix();
    if (rb != nullptr) {
      rb->on_query(sim, subs);
    }
    std::vector<ReplicatedClass> classes;
    classes.reserve(subs.size());
    for (KautzRegion& sub : subs) {
      FrtSearchClass cls;
      cls.com_t = sub.common_prefix();
      cls.viable = [sub](const KautzString& aligned) {
        return sub.intersects_prefix(aligned);
      };
      std::string tag =
          std::string(cache_tag) + "|" + sub.common_prefix().to_string();
      classes.push_back(
          ReplicatedClass{std::move(sub), std::move(cls), std::move(tag)});
    }
    run_replicated_query(
        *rs, sim, net_, issuer, std::move(classes),
        // Replica snapshots hold whole regions; re-apply the destination
        // scan's predicate so served answers match the FRT path exactly.
        [region, matches](const fissione::StoredObject& obj) {
          return region.contains(obj.object_id) && matches(obj);
        },
        [region, matches](PeerId, const fissione::StoreView& view,
                          RangeQueryResult& out) {
          view.for_each([&](const fissione::StoredObject& obj) {
            if (region.contains(obj.object_id) && matches(obj)) {
              out.matches.push_back(obj.payload);
              ++out.stats.results;
            }
          });
        },
        std::move(done));
    return;
  }

  // Paper §4.2: divide <LowT, HighT> into subregions with common prefixes.
  // Closures own their subregion copies: the search may outlive this frame.
  std::vector<KautzRegion> subs = region.split_common_prefix();
  if (rb != nullptr) {
    rb->on_query(sim, subs);
  }
  std::vector<FrtSearchClass> classes;
  classes.reserve(subs.size());
  for (KautzRegion& sub : subs) {
    FrtSearchClass cls;
    cls.com_t = sub.common_prefix();
    cls.viable = [sub = std::move(sub)](const KautzString& aligned) {
      return sub.intersects_prefix(aligned);
    };
    classes.push_back(std::move(cls));
  }

  const FrtSearch search(net_);
  search.run_async(
      sim, issuer, std::move(classes),
      [region, matches](PeerId, const fissione::StoreView& view,
                        RangeQueryResult& out) {
        view.for_each([&](const fissione::StoredObject& obj) {
          if (region.contains(obj.object_id) && matches(obj)) {
            out.matches.push_back(obj.payload);
            ++out.stats.results;
          }
        });
      },
      std::move(done));
}

std::vector<PeerId> Pira::expected_destinations(
    const KautzRegion& region) const {
  std::vector<PeerId> out;
  for (PeerId p : net_.alive_peers()) {
    if (region.intersects_prefix(net_.peer(p).peer_id)) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace armada::core
