#include "fissione/churn_driver.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace armada::fissione {

static_assert(ChurnDriver::kMinSize > kautz::kBase + 1u,
              "floor must stay above the bootstrap size");

ChurnDriver::ChurnDriver(FissioneNetwork& net, sim::Simulator& sim,
                         Config config)
    : ChurnCore(net, sim, config), net_(net) {}

void ChurnDriver::change(sim::ChurnEventKind kind) {
  FissioneNetwork::MembershipReport report;
  switch (kind) {
    case sim::ChurnEventKind::kJoin:
      net_.join(&report);
      // PeerIds are recycled: a window left over from a departed peer must
      // not leak onto the fresh joiner reusing its id.
      windows_.clear(report.joiner);
      break;
    case sim::ChurnEventKind::kLeave:
      net_.leave(net_.random_peer(), &report);
      break;
    case sim::ChurnEventKind::kCrash:
      net_.crash(net_.random_peer(), &report);
      break;
  }
  const std::uint32_t message_bytes = net_.transport().default_message_bytes();
  placement(report.placement_hops, report.placement_latency);

  // Neighbor-table updates: one delivery origin -> p per rewired peer; p is
  // stale until it arrives. The origin rewires itself locally, so its
  // window only spans the (crash) detection gap.
  for (PeerId p : report.rewired) {
    if (p == report.origin) {
      windows_.touch(p, base());
      continue;
    }
    windows_.touch(p, send(report.origin, p, message_bytes,
                           net::TrafficClass::kRepair));
  }

  // Object handoffs: one batched transfer per (from, to); the payloads are
  // in flight — unavailable to queries — until the transfer lands, and both
  // endpoints stay stale while their stores are mid-change.
  for (const auto& h : report.handoffs) {
    const std::uint32_t bytes =
        message_bytes +
        kHandoffObjectBytes * static_cast<std::uint32_t>(h.payloads.size());
    stats_.objects_handed_off += h.payloads.size();
    const sim::Time arrival =
        send(h.from, h.to, bytes, net::TrafficClass::kHandoff, [this] {
          // Purge transfers that have landed by now; re-handed-off objects
          // keep their (later) arrival.
          const sim::Time t = now();
          for (auto it = in_flight_.begin(); it != in_flight_.end();) {
            it = it->second <= t ? in_flight_.erase(it) : std::next(it);
          }
        });
    for (std::uint64_t payload : h.payloads) {
      sim::Time& landing = in_flight_[payload];
      landing = std::max(landing, arrival);
    }
    windows_.touch(h.to, arrival);
    // The sender may have departed (leave handoffs); only alive senders get
    // a window.
    if (net_.is_alive(h.from)) {
      windows_.touch(h.from, arrival);
    }
  }

  stats_.objects_dropped += report.objects_dropped;
  // Peak counts objects actually on the wire: entries that land at this
  // very instant (zero-delay schedules) are never in flight.
  stats_.objects_in_flight_peak =
      std::max(stats_.objects_in_flight_peak,
               static_cast<std::uint64_t>(objects_in_flight()));
}

bool ChurnDriver::is_in_flight(std::uint64_t payload) const {
  const auto it = in_flight_.find(payload);
  return it != in_flight_.end() && it->second > now();
}

std::size_t ChurnDriver::objects_in_flight() const {
  std::size_t n = 0;
  for (const auto& [payload, arrival] : in_flight_) {
    if (arrival > now()) {
      ++n;
    }
  }
  return n;
}

ChurnDriver::StaleRoute ChurnDriver::route(PeerId from,
                                           const kautz::KautzString& object_id) {
  RouteResult structural = net_.route(from, object_id);
  StaleRoute out{replay(structural.path), std::move(structural)};
  if (out.failed) {
    out.route.owner = kNoPeer;
  }
  return out;
}

}  // namespace armada::fissione
