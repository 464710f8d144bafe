#include "rq/scrap.h"

#include <algorithm>

#include "net/routed_overlay.h"
#include "util/check.h"

namespace armada::rq {

using sfc::Cell;
using skipgraph::NodeId;

Scrap::Scrap(const skipgraph::SkipGraph& graph, Config config)
    : graph_(graph), config_(config), store_(graph.num_nodes()) {
  ARMADA_CHECK(config_.order >= 1 && config_.order <= 26);
  ARMADA_CHECK(config_.min_side_bits <= config_.order);
  ARMADA_CHECK(config_.domain.size() == 2);
  const double total = std::exp2(2.0 * config_.order);
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    ARMADA_CHECK(graph_.key(id) >= 0.0 && graph_.key(id) < total);
  }
}

Cell Scrap::cell_of(const std::vector<double>& p) const {
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

std::uint64_t Scrap::publish(const std::vector<double>& point) {
  const std::uint64_t idx =
      sfc::curve_index(sfc::Curve::kMorton, config_.order, cell_of(point));
  const std::uint64_t handle = points_.size();
  points_.push_back({point[0], point[1]});
  store_[graph_.owner_of(static_cast<double>(idx))].emplace_back(idx, handle);
  return handle;
}

core::RangeQueryResult Scrap::query(NodeId issuer,
                                    const kautz::Box& box) const {
  ARMADA_CHECK(box.size() == 2);
  core::RangeQueryResult result;
  const Cell lo = cell_of({box[0].lo, box[1].lo});
  const Cell hi = cell_of({box[0].hi, box[1].hi});
  const auto segments =
      sfc::box_ranges(sfc::Curve::kMorton, config_.order, lo.x, hi.x, lo.y,
                      hi.y, config_.min_side_bits);

  std::vector<char> visited(graph_.num_nodes(), 0);
  auto visit = [&](NodeId node, const sfc::IndexRange& seg) {
    if (!visited[node]) {
      visited[node] = 1;
      result.destinations.push_back(node);
      ++result.stats.dest_peers;
    }
    for (const auto& [idx, handle] : store_[node]) {
      if (idx < seg.first || idx >= seg.last) {
        continue;
      }
      const auto& p = points_[handle];
      bool inside = true;
      for (std::size_t i = 0; i < 2; ++i) {
        inside = inside && p[i] >= box[i].lo && p[i] <= box[i].hi;
      }
      if (inside) {
        result.matches.push_back(handle);
        ++result.stats.results;
      }
    }
  };

  // Segments are dispatched concurrently: messages sum across segments,
  // delay/latency take the max over segment branches.
  sim::QueryStats fan;
  for (const sfc::IndexRange& seg : segments) {
    // Search the segment start, then walk successors across it.
    const auto s = graph_.search(issuer, static_cast<double>(seg.first));
    sim::QueryStats branch = s.stats;
    NodeId cur = s.node;
    visit(cur, seg);
    NodeId nxt = graph_.next(cur);
    while (nxt != skipgraph::kNoNode &&
           graph_.key(nxt) < static_cast<double>(seg.last)) {
      overlay::step(branch, graph_.transport(), cur, nxt);
      cur = nxt;
      visit(cur, seg);
      nxt = graph_.next(cur);
    }
    overlay::fan_in(fan, branch);
  }
  overlay::chain(result.stats, fan);
  return result;
}

}  // namespace armada::rq
