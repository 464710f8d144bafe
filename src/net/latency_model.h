// Pluggable per-link latency models for the transport subsystem.
//
// The paper's evaluation charges one time unit per overlay hop, which makes
// "delay" a hop count. Real deployments see heterogeneous link latencies, so
// every model here maps an overlay link (u, v) to a latency that is a *pure
// function* of the endpoints and the model's seed: repeated calls return
// bit-identical values, two model instances with equal seeds agree on every
// link, and latencies are symmetric. That keeps simulations exactly
// reproducible without materializing an N x N matrix. A model's shape (its
// costs, bounds, cluster count or median) is a class constant; the seed is
// its only setting.
#pragma once

#include <cstdint>
#include <string>

#include "sim/event_queue.h"

namespace armada::net {

/// Transport-level node handle. Every overlay in this repo already uses a
/// dense uint32 id (fissione::PeerId, can::NodeId, ...), so links are
/// addressed by those ids directly.
using NodeId = std::uint32_t;

using sim::Time;

/// Interface: one-way latency of the overlay link u -> v.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Pure and symmetric; strictly positive for u != v.
  virtual Time link_latency(NodeId u, NodeId v) const = 0;

  /// Short identifier for bench tables / JSON records.
  virtual std::string name() const = 0;
};

/// Every link costs exactly kCost = 1: arrival time equals hop count,
/// reproducing the paper's original delay metric bit-for-bit. This is the
/// default model of every network, so existing figures are unchanged.
class ConstantHop final : public LatencyModel {
 public:
  static constexpr Time kCost = 1.0;

  Time link_latency(NodeId u, NodeId v) const override;
  std::string name() const override { return "constant"; }
};

/// Per-link latency uniform in [kLo, kHi); fixed per link by hashing the
/// seed with the (unordered) endpoint pair.
class UniformJitter final : public LatencyModel {
 public:
  static constexpr Time kLo = 0.5;
  static constexpr Time kHi = 1.5;

  explicit UniformJitter(std::uint64_t seed) : seed_(seed) {}

  Time link_latency(NodeId u, NodeId v) const override;
  std::string name() const override { return "jitter"; }

 private:
  std::uint64_t seed_;
};

/// Hierarchical transit-stub topology: each node hashes into one of
/// kClusters stub domains; links inside a cluster cost kIntra, links
/// crossing clusters cost kInter. Models the LAN/WAN split that proximity-
/// aware overlay routing exploits.
class TransitStub final : public LatencyModel {
 public:
  static constexpr std::uint32_t kClusters = 16;
  static constexpr Time kIntra = 1.0;
  static constexpr Time kInter = 10.0;

  explicit TransitStub(std::uint64_t seed) : seed_(seed) {}

  Time link_latency(NodeId u, NodeId v) const override;
  std::string name() const override { return "transit_stub"; }

  /// Stub domain of a node (exposed for tests).
  std::uint32_t cluster_of(NodeId u) const;

 private:
  std::uint64_t seed_;
};

/// Seeded empirical RTT matrix with a King-style long-tail distribution
/// (Gummadi et al., "King: Estimating latency between arbitrary Internet end
/// hosts", IMW'02). Each link draws its latency by inverse-transform
/// sampling from a piecewise-linear CDF shaped like the King measurements —
/// median at kMedian = 1 time unit, ~4x the median at p90 and a tail past
/// 20x — so a few slow links dominate query latency the way real WAN paths
/// do. Behaves exactly like a fixed symmetric matrix; entries are computed
/// lazily from the seed, so memory stays O(1) at any network size.
class RttMatrix final : public LatencyModel {
 public:
  static constexpr Time kMedian = 1.0;

  explicit RttMatrix(std::uint64_t seed) : seed_(seed) {}

  Time link_latency(NodeId u, NodeId v) const override;
  std::string name() const override { return "rtt_king"; }

 private:
  std::uint64_t seed_;
};

}  // namespace armada::net
