#include "rq/pht.h"

#include <algorithm>

#include "net/routed_overlay.h"
#include "util/check.h"

namespace armada::rq {

sim::QueryStats Pht::flat_cost(std::uint32_t hops) {
  sim::QueryStats cost;
  cost.messages = hops;
  cost.delay = hops;
  cost.latency = hops;
  return cost;
}

Pht::Pht(Config config, LookupFn lookup)
    : config_(config), lookup_(std::move(lookup)) {
  ARMADA_CHECK(config_.key_bits >= 1 && config_.key_bits <= 62);
  ARMADA_CHECK(config_.leaf_capacity >= 1);
  ARMADA_CHECK(config_.domain.lo < config_.domain.hi);
  nodes_[""] = TrieNode{};  // root starts as an empty leaf
}

std::uint64_t Pht::key_of(double value) const {
  ARMADA_CHECK(value >= config_.domain.lo && value <= config_.domain.hi);
  const double span = config_.domain.hi - config_.domain.lo;
  const std::uint64_t total = 1ull << config_.key_bits;
  const auto k = static_cast<std::uint64_t>(
      (value - config_.domain.lo) / span * static_cast<double>(total));
  return std::min(k, total - 1);
}

std::uint64_t Pht::label_min(const std::string& label) const {
  std::uint64_t k = 0;
  for (char c : label) {
    k = (k << 1) | static_cast<std::uint64_t>(c - '0');
  }
  return k << (config_.key_bits - label.size());
}

std::uint64_t Pht::label_max(const std::string& label) const {
  const std::uint64_t width = config_.key_bits - label.size();
  return label_min(label) + ((1ull << width) - 1);
}

std::uint64_t Pht::publish(double value) {
  const std::uint64_t handle = num_objects_++;
  const std::uint64_t key = key_of(value);

  // Descend to the leaf whose label prefixes the key.
  std::string label;
  while (!nodes_.at(label).leaf) {
    const std::uint64_t bit =
        (key >> (config_.key_bits - 1 - label.size())) & 1;
    label.push_back(bit != 0u ? '1' : '0');
  }
  nodes_.at(label).keys.emplace_back(key, handle);
  if (nodes_.at(label).keys.size() > config_.leaf_capacity &&
      label.size() < config_.key_bits) {
    split_leaf(label);
  }
  return handle;
}

void Pht::split_leaf(const std::string& label) {
  TrieNode& node = nodes_.at(label);
  ARMADA_CHECK(node.leaf);
  TrieNode zero;
  TrieNode one;
  const std::uint64_t bit_pos = config_.key_bits - 1 - label.size();
  for (const auto& entry : node.keys) {
    (((entry.first >> bit_pos) & 1) != 0u ? one : zero)
        .keys.push_back(entry);
  }
  node.leaf = false;
  node.keys.clear();
  nodes_[label + "0"] = std::move(zero);
  nodes_[label + "1"] = std::move(one);
  // Cascade while a child still overflows (duplicate-heavy data can pile up
  // in one child; stop at full key width).
  for (const char* c : {"0", "1"}) {
    const std::string child = label + c;
    if (nodes_.at(child).keys.size() > config_.leaf_capacity &&
        child.size() < config_.key_bits) {
      split_leaf(child);
    }
  }
}

sim::QueryStats Pht::visit(const std::string& label, std::uint64_t klo,
                           std::uint64_t khi,
                           core::RangeQueryResult& out) const {
  // One DHT routing to read this trie node.
  sim::QueryStats cost = lookup_(label);

  const TrieNode& node = nodes_.at(label);
  if (node.leaf) {
    ++out.stats.dest_peers;
    for (const auto& [key, handle] : node.keys) {
      if (key >= klo && key <= khi) {
        out.matches.push_back(handle);
        ++out.stats.results;
      }
    }
    return cost;
  }
  // Both qualifying children are visited concurrently: messages sum,
  // delay/latency take the deepest branch chain.
  sim::QueryStats fan;
  for (const char* c : {"0", "1"}) {
    const std::string child = label + c;
    if (label_min(child) <= khi && label_max(child) >= klo) {
      overlay::fan_in(fan, visit(child, klo, khi, out));
    }
  }
  overlay::chain(cost, fan);
  return cost;
}

core::RangeQueryResult Pht::query(double lo, double hi) const {
  ARMADA_CHECK(lo <= hi);
  core::RangeQueryResult result;
  overlay::chain(result.stats, visit("", key_of(lo), key_of(hi), result));
  return result;
}

Pht::PointLookup Pht::lookup(double value) const {
  const std::uint64_t key = key_of(value);
  std::string key_bits;
  key_bits.reserve(config_.key_bits);
  for (std::uint32_t i = 0; i < config_.key_bits; ++i) {
    key_bits.push_back(
        ((key >> (config_.key_bits - 1 - i)) & 1) != 0u ? '1' : '0');
  }

  PointLookup result;
  // Binary search over prefix lengths: an existing internal node means the
  // leaf is deeper; a missing node means it is shallower.
  std::uint32_t lo = 0;
  std::uint32_t hi = config_.key_bits;
  while (true) {
    const std::uint32_t mid = (lo + hi) / 2;
    const std::string label = key_bits.substr(0, mid);
    ++result.probes;
    // Probes are issued sequentially by the client: costs chain.
    overlay::chain(result.stats, lookup_(label));
    const auto it = nodes_.find(label);
    if (it == nodes_.end()) {
      ARMADA_CHECK(mid > 0);
      hi = mid - 1;
    } else if (!it->second.leaf) {
      lo = mid + 1;
    } else {
      for (const auto& [k, handle] : it->second.keys) {
        if (k == key) {
          result.handles.push_back(handle);
        }
      }
      return result;
    }
    ARMADA_CHECK_MSG(lo <= hi, "binary search failed to find a leaf");
  }
}

void Pht::check_invariants() const {
  for (const auto& [label, node] : nodes_) {
    if (!node.leaf) {
      ARMADA_CHECK(node.keys.empty());
      ARMADA_CHECK(nodes_.contains(label + "0"));
      ARMADA_CHECK(nodes_.contains(label + "1"));
      continue;
    }
    ARMADA_CHECK_MSG(
        node.keys.size() <= config_.leaf_capacity ||
            label.size() == config_.key_bits,
        "oversized leaf " << label);
    for (const auto& [key, handle] : node.keys) {
      ARMADA_CHECK(key >= label_min(label) && key <= label_max(label));
      ARMADA_CHECK(handle < num_objects_);
    }
  }
}

}  // namespace armada::rq
