#include "support/kautz_graph.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "kautz/kautz_space.h"
#include "util/check.h"

namespace armada::kautz {

namespace {
constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
}  // namespace

KautzGraph::KautzGraph(std::size_t k) : k_(k), num_nodes_(space_size(k)) {
  ARMADA_CHECK(k_ >= 1);
}

KautzString KautzGraph::label(std::uint64_t node) const {
  return unrank(k_, node);
}

std::uint64_t KautzGraph::node(const KautzString& s) const {
  ARMADA_CHECK(s.length() == k_);
  return rank(s);
}

std::vector<std::uint64_t> KautzGraph::out_neighbors(std::uint64_t node) const {
  // u1 u2 ... uk -> u2 ... uk b for every b != uk. At k = 1 the shifted
  // string is empty, so the rule is stated on s.back(), not on the shift.
  const KautzString s = label(node);
  const KautzString shifted = s.drop_front();
  std::vector<std::uint64_t> out;
  out.reserve(kBase);
  for (std::uint8_t b = 0; b <= kBase; ++b) {
    if (b != s.back()) {
      KautzString t = shifted;
      t.push_back(b);
      out.push_back(rank(t));
    }
  }
  return out;
}

std::vector<std::uint64_t> KautzGraph::in_neighbors(std::uint64_t node) const {
  const KautzString s = label(node);
  const KautzString head = s.prefix(k_ - 1);
  std::vector<std::uint64_t> in;
  in.reserve(kBase);
  for (std::uint8_t a = 0; a <= kBase; ++a) {
    if (a == s.front()) {
      continue;
    }
    KautzString t;
    t.push_back(a);
    if (head.empty() || t.back() != head.front()) {
      in.push_back(rank(t.concat(head)));
    }
  }
  return in;
}

std::vector<std::uint32_t> KautzGraph::bfs_distances(std::uint64_t from) const {
  std::vector<std::uint32_t> dist(num_nodes_, kUnreached);
  std::deque<std::uint64_t> queue;
  dist[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const std::uint64_t u = queue.front();
    queue.pop_front();
    for (std::uint64_t v : out_neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::uint32_t KautzGraph::diameter() const {
  std::uint32_t best = 0;
  for (std::uint64_t u = 0; u < num_nodes_; ++u) {
    const auto dist = bfs_distances(u);
    for (std::uint32_t d : dist) {
      ARMADA_CHECK_MSG(d != kUnreached, "Kautz graph must be strongly connected");
      best = std::max(best, d);
    }
  }
  return best;
}

}  // namespace armada::kautz
