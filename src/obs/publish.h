// Adapters from the four cumulative stats currencies into obs::Registry.
//
// The stats structs stay the source of truth — publishing copies their
// cumulative values into registry counters/gauges under a dotted prefix,
// so benches and the periodic Sampler read every subsystem in one
// namespace. Counters publish with Registry::count (absolute, monotone);
// gauges and peaks with Registry::set.
#pragma once

#include <string>
#include <string_view>

#include "net/congestion_stats.h"
#include "obs/registry.h"
#include "rebalance/rebalance.h"
#include "replica/replica_set.h"
#include "sim/churn.h"

namespace armada::obs {

/// Transport congestion counters under `<prefix>.*`, including the
/// per-class `<prefix>.class.<query|repair|handoff>.messages` /
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
