// Adapters from the five existing stats currencies into obs::Registry.
//
// The stats structs stay the source of truth — publishing copies their
// cumulative values into registry counters/gauges under a dotted prefix,
// so benches and the periodic Sampler read every subsystem in one
// namespace. Counters publish with Registry::count (absolute, monotone);
// gauges and peaks with Registry::set; per-query QueryStats feed
// histograms.
#pragma once

#include <string>
#include <string_view>

#include "net/congestion_stats.h"
#include "obs/registry.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "sim/churn.h"
#include "sim/metrics.h"

namespace armada::obs {

/// One query's stats into histograms `<prefix>.latency`, `.delay`,
/// `.queue_delay`, `.coverage`, `.messages` plus the flow-control
/// counters `<prefix>.shed`, `.hedges`, `.replica_routes`, `.cache_hits`,
/// and `<prefix>.queries`.
void publish(Registry& reg, std::string_view prefix,
             const sim::QueryStats& stats);

/// Transport congestion counters under `<prefix>.*`, including the
/// per-class `<prefix>.class.<query|repair|handoff|hedge>.messages` /
/// `.queue_delay` series the backlog dashboards read.
void publish(Registry& reg, std::string_view prefix,
             const net::CongestionStats& stats);

void publish(Registry& reg, std::string_view prefix,
             const sim::ChurnStats& stats);

void publish(Registry& reg, std::string_view prefix,
             const replica::ReplicaStats& stats);

void publish(Registry& reg, std::string_view prefix,
             const rebalance::RebalanceStats& stats);

}  // namespace armada::obs
