#include "armada/mira.h"

#include <cstdio>
#include <string>
#include <utility>

#include "armada/replicated_query.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "util/check.h"

namespace armada::core {

using fissione::PeerId;
using kautz::Box;
using kautz::KautzRegion;
using kautz::KautzString;

Mira::Mira(fissione::FissioneNetwork& net,
           const kautz::PartitionTree& tree)
    : net_(net), tree_(tree) {
  ARMADA_CHECK(tree_.base() == net_.config().base);
  ARMADA_CHECK_MSG(tree_.k() == net_.config().object_id_length,
                   "naming tree depth must equal ObjectID length");
}

RangeQueryResult Mira::query(PeerId issuer, const Box& box,
                             const ObjectFilter& matches) const {
  RangeQueryResult result;
  net_.transport().run_sync([&](sim::Simulator& sim) {
    query_async(sim, issuer, box, matches,
                [&result](RangeQueryResult r) { result = std::move(r); });
  });
  return result;
}

void Mira::query_async(sim::Simulator& sim, PeerId issuer, const Box& box,
                       const ObjectFilter& matches,
                       std::function<void(RangeQueryResult)> done) const {
  // Bounding region per the paper; the search classes inherit its
  // common-prefix split so each class has a well-defined alignment.
  // Closures own their box/subregion copies: the search may outlive this
  // frame.
  const KautzRegion region = tree_.bounding_region(box);

  // Trace root for the whole query; see Pira::query_async.
  obs::TraceRecorder* rec = net_.transport().trace();
  std::uint64_t troot = 0;
  if (rec != nullptr) [[unlikely]] {
    troot = rec->maybe_begin("mira", issuer, sim.now());
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
    // A box's identity is its interval list; %.17g round-trips doubles, so
    // equal boxes always share a tag.
    std::string base_tag = "mira";
    for (const kautz::Interval& iv : box) {
      char part[64];
      std::snprintf(part, sizeof(part), "|%.17g|%.17g", iv.lo, iv.hi);
      base_tag += part;
    }
    std::vector<KautzRegion> subs = region.split_common_prefix();
    if (rb != nullptr) {
      rb->on_query(sim, subs);
    }
    std::vector<ReplicatedClass> classes;
    classes.reserve(subs.size());
    for (KautzRegion& sub : subs) {
      // Skip first-symbol blocks whose subspace misses the box entirely.
      if (!tree_.box_intersects(sub.common_prefix().prefix(1), box)) {
        continue;
      }
      FrtSearchClass cls;
      cls.com_t = sub.common_prefix();
      cls.viable = [this, sub, box](const KautzString& aligned) {
        return sub.intersects_prefix(aligned) &&
               tree_.box_intersects(aligned, box);
      };
      std::string tag = base_tag + "|" + sub.common_prefix().to_string();
      classes.push_back(
          ReplicatedClass{std::move(sub), std::move(cls), std::move(tag)});
    }
    run_replicated_query(
        *rs, sim, net_, issuer, std::move(classes),
        // Replica snapshots hold whole regions; re-apply the geometric
        // destination predicate so served answers match the FRT path.
        [this, box, matches](const fissione::StoredObject& obj) {
          return tree_.box_intersects(obj.object_id, box) && matches(obj);
        },
        [this, box, matches](PeerId, const fissione::StoreView& view,
                             RangeQueryResult& out) {
          view.for_each([&](const fissione::StoredObject& obj) {
            if (tree_.box_intersects(obj.object_id, box) && matches(obj)) {
              out.matches.push_back(obj.payload);
              ++out.stats.results;
            }
          });
        },
        std::move(done));
    return;
  }

  std::vector<KautzRegion> subs = region.split_common_prefix();
  if (rb != nullptr) {
    rb->on_query(sim, subs);
  }
  std::vector<FrtSearchClass> classes;
  classes.reserve(subs.size());
  for (KautzRegion& sub : subs) {
    // Skip first-symbol blocks whose subspace misses the box entirely.
    if (!tree_.box_intersects(sub.common_prefix().prefix(1), box)) {
      continue;
    }
    FrtSearchClass cls;
    cls.com_t = sub.common_prefix();
    cls.viable = [this, sub = std::move(sub), box](const KautzString& aligned) {
      return sub.intersects_prefix(aligned) &&
             tree_.box_intersects(aligned, box);
    };
    classes.push_back(std::move(cls));
  }

  const FrtSearch search(net_);
  search.run_async(
      sim, issuer, std::move(classes),
      [this, box, matches](PeerId, const fissione::StoreView& view,
                           RangeQueryResult& out) {
        view.for_each([&](const fissione::StoredObject& obj) {
          if (tree_.box_intersects(obj.object_id, box) && matches(obj)) {
            out.matches.push_back(obj.payload);
            ++out.stats.results;
          }
        });
      },
      std::move(done));
}

std::vector<PeerId> Mira::expected_destinations(const Box& box) const {
  std::vector<PeerId> out;
  for (PeerId p : net_.alive_peers()) {
    if (tree_.box_intersects(net_.peer(p).peer_id, box)) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace armada::core
