// PHT — Prefix Hash Tree (Chawathe et al., SIGCOMM'05): range queries
// layered over *any* DHT (paper Table 1, the only other constant-degree-
// capable general scheme).
//
// Keys are fixed-width binary strings; the trie node with label L lives at
// the DHT peer owning hash(L). Every trie-node visit costs one full DHT
// routing, so a range query over a subtrie of depth b costs O(b * logN)
// delay on a constant-degree DHT — the Table 1 entry PIRA improves on.
//
// The trie itself is maintained here (the simulator's stand-in for the
// DHT-stored node blocks); the pluggable LookupFn charges the routing cost
// of each node access on the caller's DHT.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "armada/range_query.h"
#include "kautz/partition_tree.h"

namespace armada::rq {

class Pht {
 public:
  struct Config {
    std::uint32_t key_bits = 16;     ///< fixed key width D
    std::size_t leaf_capacity = 8;   ///< B: max keys per leaf
    kautz::Interval domain{0.0, 1000.0};
  };

  /// Cost of one DHT lookup of the given trie-node label, issued by the
  /// querying client, in the shared query-stats currency: messages and
  /// delay are the routing hop count, latency is the transport-priced
  /// arrival time on the caller's DHT. Chord-backed callers return
  /// `route(...).stats`; FISSIONE-backed callers convert a RouteResult via
  /// their own hops/latency; unit-cost tests use flat_cost().
  using LookupFn = std::function<sim::QueryStats(const std::string& label)>;

  /// A model-free lookup cost: `hops` messages, delay and latency all equal
  /// (one time unit per hop) — the paper's cost for a DHT get.
  static sim::QueryStats flat_cost(std::uint32_t hops);

  Pht(Config config, LookupFn lookup);

  /// Quantized key of a value (public for tests).
  std::uint64_t key_of(double value) const;

  /// Insert (bulk load; maintenance traffic is not metered).
  std::uint64_t publish(double value);

  /// Range query [lo, hi]: parallel recursive traversal of the subtrie;
  /// delay = deepest chain of lookups, messages = total routing hops.
  core::RangeQueryResult query(double lo, double hi) const;

  /// Exact-match lookup via PHT's binary search over prefix lengths
  /// (O(log D) DHT gets instead of D for linear descent).
  struct PointLookup {
    std::vector<std::uint64_t> handles;  ///< objects with the same key
    std::uint32_t probes = 0;            ///< DHT gets issued
    /// Sequential probe chain: messages/delay/latency sum over the probes.
    sim::QueryStats stats;
  };
  PointLookup lookup(double value) const;

  std::size_t num_trie_nodes() const { return nodes_.size(); }
  /// Trie structure checks: leaf capacities, label consistency.
  void check_invariants() const;

 private:
  struct TrieNode {
    bool leaf = true;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;  // (key, handle)
  };

  // Smallest / largest key under a label.
  std::uint64_t label_min(const std::string& label) const;
  std::uint64_t label_max(const std::string& label) const;
  void split_leaf(const std::string& label);
  // Cost fragment of one subtrie visit: this node's DHT lookup chained with
  // the concurrent fan over its children (delay/latency max over branches).
  sim::QueryStats visit(const std::string& label, std::uint64_t klo,
                        std::uint64_t khi, core::RangeQueryResult& out) const;

  Config config_;
  LookupFn lookup_;
  std::map<std::string, TrieNode> nodes_;
  std::uint64_t num_objects_ = 0;  ///< published so far; the next handle
};

}  // namespace armada::rq
