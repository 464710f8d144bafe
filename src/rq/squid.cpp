#include "rq/squid.h"

#include <algorithm>

#include "net/routed_overlay.h"
#include "util/check.h"

namespace armada::rq {

using chord::Key;
using chord::NodeId;
using sfc::Cell;

Squid::Squid(const chord::ChordNetwork& net, Config config)
    : net_(net), config_(config), store_(net.node_id_bound()) {
  ARMADA_CHECK(config_.order >= 1 && config_.order <= 31);
  ARMADA_CHECK(config_.min_side_bits <= config_.order);
  ARMADA_CHECK(config_.domain.size() == 2);
  for (const auto& iv : config_.domain) {
    ARMADA_CHECK(iv.lo < iv.hi);
  }
}

Cell Squid::cell_of(const std::vector<double>& p) const {
  ARMADA_CHECK(p.size() == 2);
  Cell cell;
  const std::uint64_t side = 1ull << config_.order;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& iv = config_.domain[i];
    ARMADA_CHECK(p[i] >= iv.lo && p[i] <= iv.hi);
    const auto c = static_cast<std::uint64_t>(
        (p[i] - iv.lo) / (iv.hi - iv.lo) * static_cast<double>(side));
    (i == 0 ? cell.x : cell.y) = std::min(c, side - 1);
  }
  return cell;
}

Key Squid::ring_key(std::uint64_t hilbert_index) const {
  return hilbert_index << (64 - 2 * config_.order);
}

std::uint64_t Squid::publish(const std::vector<double>& point) {
  const std::uint64_t idx = sfc::hilbert_index(config_.order, cell_of(point));
  const std::uint64_t handle = points_.size();
  points_.push_back({point[0], point[1]});
  store_[net_.owner_of(ring_key(idx))].emplace_back(idx, handle);
  return handle;
}

sim::QueryStats Squid::collect_segment(NodeId entry, std::uint64_t first,
                                       std::uint64_t last,
                                       const kautz::Box& box,
                                       std::vector<char>& visited,
                                       core::RangeQueryResult& out) const {
  // `entry` owns ring_key(first); successors own the rest of the segment.
  // The node owning the segment's tail has key >= the segment end.
  sim::QueryStats walk;
  NodeId cur = entry;
  const Key last_key = ring_key(last - 1);
  while (true) {
    if (!visited[cur]) {
      visited[cur] = 1;
      out.destinations.push_back(cur);
      ++out.stats.dest_peers;
    }
    // Scan per segment: segments are disjoint index windows, and one node
    // can serve several of them.
    for (const auto& [idx, handle] : store_[cur]) {
      if (idx >= first && idx < last) {
        const auto& p = points_[handle];
        bool inside = true;
        for (std::size_t i = 0; i < 2; ++i) {
          inside = inside && p[i] >= box[i].lo && p[i] <= box[i].hi;
        }
        if (inside) {
          out.matches.push_back(handle);
          ++out.stats.results;
        }
      }
    }
    if (chord::in_ring_range(net_.node_key(net_.predecessor_node(cur)),
                             net_.node_key(cur), last_key)) {
      break;  // cur owns the end of the segment
    }
    const NodeId succ = net_.successor_node(cur);
    overlay::step(walk, net_.transport(), cur, succ);
    cur = succ;
  }
  return walk;
}

sim::QueryStats Squid::refine(NodeId from, Cell corner,
                              std::uint32_t side_bits, std::uint64_t x_lo,
                              std::uint64_t x_hi, std::uint64_t y_lo,
                              std::uint64_t y_hi, const kautz::Box& box,
                              std::vector<char>& visited,
                              core::RangeQueryResult& out) const {
  const std::uint64_t size = 1ull << side_bits;
  const std::uint64_t sx_hi = corner.x + size - 1;
  const std::uint64_t sy_hi = corner.y + size - 1;
  if (corner.x > x_hi || sx_hi < x_lo || corner.y > y_hi || sy_hi < y_lo) {
    return {};
  }

  // Route to the peer owning the start of this cluster (one Chord routing).
  const sfc::IndexRange range =
      sfc::hilbert_square_range(config_.order, corner, side_bits);
  const chord::ChordRoute route = net_.route(from, ring_key(range.first));
  sim::QueryStats r = route.stats;

  const bool covered = corner.x >= x_lo && sx_hi <= x_hi && corner.y >= y_lo &&
                       sy_hi <= y_hi;
  if (covered || side_bits == config_.min_side_bits) {
    overlay::chain(r, collect_segment(route.owner, range.first, range.last,
                                      box, visited, out));
    return r;
  }

  // Refine: the owner dispatches the four sub-clusters concurrently.
  const std::uint64_t half = size / 2;
  sim::QueryStats fan;
  for (const Cell sub :
       {corner, Cell{corner.x + half, corner.y}, Cell{corner.x, corner.y + half},
        Cell{corner.x + half, corner.y + half}}) {
    overlay::fan_in(fan, refine(route.owner, sub, side_bits - 1, x_lo, x_hi,
                                y_lo, y_hi, box, visited, out));
  }
  overlay::chain(r, fan);
  return r;
}

core::RangeQueryResult Squid::query(NodeId issuer,
                                    const kautz::Box& box) const {
  ARMADA_CHECK(box.size() == 2);
  core::RangeQueryResult result;
  const Cell lo = cell_of({box[0].lo, box[1].lo});
  const Cell hi = cell_of({box[0].hi, box[1].hi});
  std::vector<char> visited(net_.node_id_bound(), 0);
  overlay::chain(result.stats,
                 refine(issuer, Cell{0, 0}, config_.order, lo.x, hi.x, lo.y,
                        hi.y, box, visited, result));
  return result;
}

}  // namespace armada::rq
