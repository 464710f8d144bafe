#include "armada/churn_harness.h"

#include <algorithm>

#include "util/check.h"

namespace armada::core {

ChurnHarness::ChurnHarness(ArmadaIndex& index, fissione::ChurnDriver& driver)
    : index_(index), driver_(driver) {
  ARMADA_CHECK_MSG(index_.num_attributes() == 1,
                   "ChurnHarness supports single-attribute indexes");
}

ChurnHarness::RangeOutcome ChurnHarness::range_query(fissione::PeerId issuer,
                                                     double lo, double hi) {
  RangeOutcome out;
  const RangeQueryResult r = index_.range_query(issuer, lo, hi);
  out.stats = r.stats;

  // Matches whose handoff transfer has not landed are on the wire: neither
  // the old nor the new holder can serve them, so the answer misses them.
  out.matches.reserve(r.matches.size());
  for (std::uint64_t handle : r.matches) {
    if (driver_.is_in_flight(handle)) {
      ++out.missed;
    } else {
      out.matches.push_back(handle);
    }
  }

  // Every stale peer the query fans into — the issuer itself, or a
  // destination peer holding part of the answer — chased a stale pointer
  // first and retries: one extra message, hop, and link charge each. Like
  // the drivers' route replay, charging stops once the detour budget is
  // exhausted: the query is abandoned, not retried further.
  const fissione::FissioneNetwork& net = driver_.net();
  for (fissione::PeerId p : driver_.stale_nodes()) {
    bool touches = p == issuer;
    if (!touches) {
      net.for_each_owned(p, [&](const fissione::StoredObject& obj) {
        if (touches) {
          return;
        }
        const double v = index_.attributes(obj.payload)[0];
        if (v >= lo && v <= hi) {
          touches = true;
        }
      });
    }
    if (!touches) {
      continue;
    }
    out.stale = true;
    ++out.detours;
    ++out.stats.messages;
    out.stats.delay += 1.0;
    // A stale issuer retries over its first overlay link (models cannot
    // price self-links); any other stale peer re-prices the issuer->peer
    // delivery that chased the stale pointer.
    const fissione::PeerId retry_peer =
        p == issuer ? net.out_neighbors(issuer).front() : p;
    out.stats.latency += net.transport().link(issuer, retry_peer);
    if (out.detours > fissione::ChurnDriver::kMaxDetours) {
      out.failed = true;
      break;
    }
  }
  out.stale = out.stale || out.missed > 0;

  if (out.failed) {
    out.matches.clear();
  }
  std::sort(out.matches.begin(), out.matches.end());

  driver_.record_query(out.stale, out.detours, out.failed, out.missed);
  return out;
}

}  // namespace armada::core
