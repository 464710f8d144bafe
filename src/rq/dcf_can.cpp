#include "rq/dcf_can.h"

#include <algorithm>
#include <functional>

#include "sim/event_queue.h"
#include "util/check.h"

namespace armada::rq {

using can::NodeId;
using sfc::Cell;
using sfc::IndexRange;

DcfCan::DcfCan(can::CanNetwork& net, Config config)
    : net_(net), config_(config), store_(net.num_nodes()) {
  ARMADA_CHECK(config_.order >= 1 && config_.order <= 31);
  ARMADA_CHECK(config_.domain.lo < config_.domain.hi);
  // Zones are static after construction: precompute their index ranges.
  zone_ranges_.reserve(net_.num_nodes());
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    const can::Zone& z = net_.zone(id);
    ARMADA_CHECK_MSG(z.x_bits <= config_.order && z.y_bits <= config_.order,
                     "grid order too small for zone depth");
    const Cell corner{z.x_num << (config_.order - z.x_bits),
                      z.y_num << (config_.order - z.y_bits)};
    zone_ranges_.push_back(
        sfc::rect_ranges(sfc::Curve::kHilbert, config_.order, corner,
                         config_.order - z.x_bits, config_.order - z.y_bits));
  }
}

std::uint64_t DcfCan::value_to_index(double v) const {
  ARMADA_CHECK(v >= config_.domain.lo && v <= config_.domain.hi);
  const double span = config_.domain.hi - config_.domain.lo;
  const double scaled = (v - config_.domain.lo) / span;
  const std::uint64_t total = 1ull << (2 * config_.order);
  const auto idx = static_cast<std::uint64_t>(scaled * static_cast<double>(total));
  return std::min(idx, total - 1);
}

void DcfCan::cell_center(std::uint64_t index, double* x, double* y) const {
  const Cell c = sfc::hilbert_cell(config_.order, index);
  const double side = static_cast<double>(1ull << config_.order);
  *x = (static_cast<double>(c.x) + 0.5) / side;
  *y = (static_cast<double>(c.y) + 0.5) / side;
}

std::uint64_t DcfCan::publish(double value) {
  const std::uint64_t handle = values_.size();
  values_.push_back(value);
  double x = 0.0;
  double y = 0.0;
  cell_center(value_to_index(value), &x, &y);
  store_[net_.node_at(x, y)].emplace_back(value, handle);
  return handle;
}

double DcfCan::value(std::uint64_t handle) const {
  ARMADA_CHECK(handle < values_.size());
  return values_[handle];
}

IndexRange DcfCan::query_range(double lo, double hi) const {
  ARMADA_CHECK(lo <= hi);
  return IndexRange{value_to_index(lo), value_to_index(hi) + 1};
}

const std::vector<IndexRange>& DcfCan::zone_ranges(NodeId id) const {
  ARMADA_CHECK(id < zone_ranges_.size());
  return zone_ranges_[id];
}

bool DcfCan::zone_intersects(NodeId id, const IndexRange& r) const {
  for (const IndexRange& zr : zone_ranges(id)) {
    if (zr.intersects(r)) {
      return true;
    }
  }
  return false;
}

core::RangeQueryResult DcfCan::query(NodeId issuer, double lo,
                                     double hi) const {
  core::RangeQueryResult result;
  const IndexRange qr = query_range(lo, hi);

  // Phase 1: greedy-route to the zone owning the median value.
  double mx = 0.0;
  double my = 0.0;
  cell_center((qr.first + qr.last - 1) / 2, &mx, &my);
  const can::CanRoute route = net_.route(issuer, mx, my);
  result.stats.messages += route.stats.messages;

  // Phase 2: directed controlled flooding over intersecting zones, run on
  // the discrete-event simulator so each transmission arrives after its
  // link latency. A zone acts on its *first* arrival (suppressing later
  // duplicates, though each transmission still costs a message) and floods
  // onward to every intersecting neighbor except the sender. Under the
  // default ConstantHop model arrivals order exactly like the classic BFS,
  // so hop depths, parents, message counts and visit order are unchanged.
  ARMADA_CHECK(zone_intersects(route.final_node, qr));
  net::Transport& transport = net_.transport();
  std::vector<char> visited(net_.num_nodes(), 0);
  std::uint32_t max_depth = 0;
  double flood_latency = 0.0;

  std::function<void(sim::Simulator&, NodeId, NodeId, std::uint32_t)> arrive =
      [&](sim::Simulator& sim, NodeId z, NodeId from, std::uint32_t depth) {
        if (visited[z]) {
          return;  // duplicate; its message was charged at transmission
        }
        visited[z] = 1;
        max_depth = std::max(max_depth, depth);
        flood_latency = std::max(flood_latency, sim.now());
        result.destinations.push_back(z);
        ++result.stats.dest_peers;
        for (const auto& [value, handle] : store_[z]) {
          if (value >= lo && value <= hi) {
            result.matches.push_back(handle);
            ++result.stats.results;
          }
        }
        const std::uint32_t bytes = transport.default_message_bytes();
        for (NodeId n : net_.neighbors(z)) {
          if (n == from || !zone_intersects(n, qr)) {
            continue;
          }
          ++result.stats.messages;  // transmitted even if the receiver drops
          result.stats.bytes_on_wire += bytes;
          // visited[] is monotone, so a receiver already visited at send
          // time is guaranteed to drop the arrival. On the propagation-only
          // path that event is a no-op and is skipped; with an active
          // queueing network the transmission still consumes egress
          // service, link bandwidth and a batch slot, so it must be sent
          // (arrive() drops it as a duplicate).
          if (!visited[n] || transport.queueing_active()) {
            transport.deliver(
                sim, z, n, bytes,
                [&result, &arrive, &sim, n, z, depth](sim::Time qd) {
                  result.stats.queue_delay += qd;
                  arrive(sim, n, z, depth + 1);
                });
          }
        }
      };
  transport.run_sync([&](sim::Simulator& sim) {
    sim.schedule_at(0.0, [&arrive, &route, &sim] {
      arrive(sim, route.final_node, can::kNoNode, 0);
    });
  });

  result.stats.delay = route.stats.delay + static_cast<double>(max_depth);
  result.stats.latency = route.stats.latency + flood_latency;
  return result;
}

std::vector<NodeId> DcfCan::expected_destinations(double lo, double hi) const {
  const IndexRange qr = query_range(lo, hi);
  std::vector<NodeId> out;
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    if (zone_intersects(id, qr)) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace armada::rq
