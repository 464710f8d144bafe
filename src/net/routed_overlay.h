// The common overlay-query seam: every DHT in this repo (FISSIONE, CAN,
// Chord, Skip Graph) is a RoutedOverlay — a node set whose query messages
// travel hop by hop over a net::Transport that prices each link.
//
// Two things make cross-scheme delay comparisons meaningful (paper Table 1):
//
//  1. One transport seam. Each overlay owns a Transport (default
//     ConstantHop, one time unit per hop, under which latency == hop
//     count and the paper's figures are reproduced bit-for-bit) and can
//     swap in any LatencyModel at runtime. Benches price *all* schemes
//     through the same model.
//
//  2. One result currency. Every routing walk and query fan reports its
//     cost as a sim::QueryStats fragment: `messages` transmissions,
//     `delay` in hops (the paper's metric) and `latency` in simulated time.
//     The composition helpers below are the whole algebra the query engines
//     need — a hop `step`, sequential `chain`, and concurrent `fan_in`
//     (max over branches, the event-driven arrival-time semantics that
//     FrtSearch and the DCF-CAN flood compute on a sim::Simulator).
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "net/transport.h"
#include "sim/metrics.h"

namespace armada::overlay {

/// Base seam implemented by every overlay network: a node count plus the
/// Transport through which all of the overlay's query traffic is delivered.
class RoutedOverlay {
 public:
  virtual ~RoutedOverlay() = default;

  /// Nodes currently in the overlay.
  virtual std::size_t overlay_size() const = 0;

  /// Message-delivery seam: every query layer on this overlay charges link
  /// latencies through this transport. Defaults to ConstantHop (unit
  /// cost), i.e. latency == hop count.
  const net::Transport& transport() const { return transport_; }
  /// Mutable seam for the stateful (queueing) delivery path.
  net::Transport& transport() { return transport_; }

  /// Swap the latency model; subsequent queries report latencies under the
  /// new model while hop-count delays stay untouched.
  void set_latency_model(std::shared_ptr<const net::LatencyModel> model) {
    transport_.set_model(std::move(model));
  }

  /// Install a queueing network under the transport (see net/queueing.h):
  /// per-node service queues, sized messages against link bandwidth, and
  /// per-link departure coalescing. The zero-queue default config leaves
  /// every delivery instant bitwise unchanged.
  void install_queueing(const net::QueueingConfig& config) {
    transport_.install_queueing(config);
  }
  void uninstall_queueing() { transport_.uninstall_queueing(); }
  bool queueing_active() const { return transport_.queueing_active(); }
  /// Congestion-side result currency of this overlay's traffic (all-zero
  /// while no queueing network is installed).
  const net::CongestionStats& congestion() const {
    return transport_.congestion();
  }

 protected:
  RoutedOverlay() = default;
  RoutedOverlay(const RoutedOverlay&) = default;
  RoutedOverlay& operator=(const RoutedOverlay&) = default;
  RoutedOverlay(RoutedOverlay&&) = default;
  RoutedOverlay& operator=(RoutedOverlay&&) = default;

  net::Transport transport_;
};

// ---------------------------------------------------------------------------
// Walk-cost algebra on sim::QueryStats.
//
// A "fragment" is a QueryStats whose cost fields describe one routing walk
// or sub-fan; its data-plane counters (dest_peers, results) stay zero —
// those are maintained by the query engines on the final result object, so
// composing fragments never double-counts them.
// ---------------------------------------------------------------------------

/// Record one next-hop delivery `from -> to`: one message, one hop of
/// delay, and the transport-priced link latency.
inline void step(sim::QueryStats& walk, const net::Transport& transport,
                 net::NodeId from, net::NodeId to) {
  ++walk.messages;
  walk.delay += 1.0;
  walk.latency += transport.link(from, to);
}

/// Sequential composition: `tail` starts where `head` ended (the next
/// message is sent only after the previous one arrived). Coverage
/// multiplies — a stage that only partially answered scales everything the
/// later stages can still cover.
inline void chain(sim::QueryStats& head, const sim::QueryStats& tail) {
  head.messages += tail.messages;
  head.delay += tail.delay;
  head.latency += tail.latency;
  head.queue_delay += tail.queue_delay;
  head.bytes_on_wire += tail.bytes_on_wire;
  head.coverage *= tail.coverage;
  head.shed += tail.shed;
}

/// Concurrent composition: fold `branch` into a fan whose branches are all
/// dispatched at the same instant. Messages, bytes and per-message queueing
/// delay sum; delay and latency are the latest branch arrival — exactly the
/// value an event-driven simulation of the fan would report. Coverage keeps
/// the minimum branch value — a conservative lower bound; engines that know
/// their destination counts (FrtSearch) overwrite it with the exact
/// fraction on the final result.
inline void fan_in(sim::QueryStats& fan, const sim::QueryStats& branch) {
  fan.messages += branch.messages;
  fan.delay = fan.delay > branch.delay ? fan.delay : branch.delay;
  fan.latency = fan.latency > branch.latency ? fan.latency : branch.latency;
  fan.queue_delay += branch.queue_delay;
  fan.bytes_on_wire += branch.bytes_on_wire;
  fan.coverage = fan.coverage < branch.coverage ? fan.coverage : branch.coverage;
  fan.shed += branch.shed;
}

}  // namespace armada::overlay
