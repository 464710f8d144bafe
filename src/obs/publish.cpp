#include "obs/publish.h"

#include "obs/trace.h"  // traffic_class_name

namespace armada::obs {
namespace {

// Joins "<prefix>.<leaf>" without repeated reallocation at call sites.
std::string dotted(std::string_view prefix, std::string_view leaf) {
  std::string name;
  name.reserve(prefix.size() + 1 + leaf.size());
  name += prefix;
  name += '.';
  name += leaf;
  return name;
}

}  // namespace

void publish(Registry& reg, std::string_view prefix,
             const net::CongestionStats& stats) {
  reg.count(dotted(prefix, "messages"), static_cast<double>(stats.messages));
  reg.count(dotted(prefix, "batches"), static_cast<double>(stats.batches));
  reg.count(dotted(prefix, "bytes_on_wire"),
            static_cast<double>(stats.bytes_on_wire));
  reg.count(dotted(prefix, "queue_delay_total"), stats.queue_delay_total);
  reg.count(dotted(prefix, "shed_messages"),
            static_cast<double>(stats.shed_messages));
  reg.set(dotted(prefix, "queue_delay_max"), stats.queue_delay_max);
  reg.set(dotted(prefix, "egress_depth_peak"),
          static_cast<double>(stats.egress_depth_peak));
  reg.set(dotted(prefix, "ingress_depth_peak"),
          static_cast<double>(stats.ingress_depth_peak));
  reg.set(dotted(prefix, "egress_busy_total"), stats.egress_busy_total);
  reg.set(dotted(prefix, "ingress_busy_total"), stats.ingress_busy_total);
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i) {
    const char* cls =
        traffic_class_name(static_cast<net::TrafficClass>(i));
    reg.count(dotted(prefix, dotted("class", dotted(cls, "messages"))),
              static_cast<double>(stats.class_messages[i]));
    reg.count(dotted(prefix, dotted("class", dotted(cls, "queue_delay"))),
              stats.class_queue_delay[i]);
  }
}

void publish(Registry& reg, std::string_view prefix,
             const sim::ChurnStats& stats) {
  reg.count(dotted(prefix, "joins"), static_cast<double>(stats.joins));
  reg.count(dotted(prefix, "leaves"), static_cast<double>(stats.leaves));
  reg.count(dotted(prefix, "crashes"), static_cast<double>(stats.crashes));
  reg.count(dotted(prefix, "skipped_events"),
            static_cast<double>(stats.skipped_events));
  reg.count(dotted(prefix, "repair_messages"),
            static_cast<double>(stats.repair_messages));
  reg.count(dotted(prefix, "repair_latency_total"),
            stats.repair_latency_total);
  reg.count(dotted(prefix, "objects_handed_off"),
            static_cast<double>(stats.objects_handed_off));
  reg.count(dotted(prefix, "objects_dropped"),
            static_cast<double>(stats.objects_dropped));
  reg.count(dotted(prefix, "queries"), static_cast<double>(stats.queries));
  reg.count(dotted(prefix, "stale_queries"),
            static_cast<double>(stats.stale_queries));
  reg.count(dotted(prefix, "detours"), static_cast<double>(stats.detours));
  reg.count(dotted(prefix, "failed_queries"),
            static_cast<double>(stats.failed_queries));
  reg.count(dotted(prefix, "incomplete_queries"),
            static_cast<double>(stats.incomplete_queries));
  reg.count(dotted(prefix, "objects_missed"),
            static_cast<double>(stats.objects_missed));
  reg.set(dotted(prefix, "repair_latency_max"), stats.repair_latency_max);
  reg.set(dotted(prefix, "objects_in_flight_peak"),
          static_cast<double>(stats.objects_in_flight_peak));
}

void publish(Registry& reg, std::string_view prefix,
             const replica::ReplicaStats& stats) {
  reg.count(dotted(prefix, "queries"), static_cast<double>(stats.queries));
  reg.count(dotted(prefix, "regions_replicated"),
            static_cast<double>(stats.regions_replicated));
  reg.count(dotted(prefix, "regions_torn_down"),
            static_cast<double>(stats.regions_torn_down));
  reg.count(dotted(prefix, "placement_messages"),
            static_cast<double>(stats.placement_messages));
  reg.count(dotted(prefix, "placement_bytes"),
            static_cast<double>(stats.placement_bytes));
  reg.count(dotted(prefix, "repairs"), static_cast<double>(stats.repairs));
  reg.count(dotted(prefix, "replica_routes"),
            static_cast<double>(stats.replica_routes));
  reg.count(dotted(prefix, "cache_hits"),
            static_cast<double>(stats.cache_hits));
  reg.count(dotted(prefix, "cache_misses"),
            static_cast<double>(stats.cache_misses));
  reg.count(dotted(prefix, "cache_insertions"),
            static_cast<double>(stats.cache_insertions));
  reg.count(dotted(prefix, "cache_invalidated_publish"),
            static_cast<double>(stats.cache_invalidated_publish));
  reg.count(dotted(prefix, "cache_invalidated_churn"),
            static_cast<double>(stats.cache_invalidated_churn));
  reg.set(dotted(prefix, "active_regions"),
          static_cast<double>(stats.active_regions));
  reg.set(dotted(prefix, "replica_objects"),
          static_cast<double>(stats.replica_objects));
}

void publish(Registry& reg, std::string_view prefix,
             const rebalance::RebalanceStats& stats) {
  reg.count(dotted(prefix, "sweeps"), static_cast<double>(stats.sweeps));
  reg.count(dotted(prefix, "migrations_started"),
            static_cast<double>(stats.migrations_started));
  reg.count(dotted(prefix, "migrations_completed"),
            static_cast<double>(stats.migrations_completed));
  reg.count(dotted(prefix, "migrations_cancelled"),
            static_cast<double>(stats.migrations_cancelled));
  reg.count(dotted(prefix, "objects_migrated"),
            static_cast<double>(stats.objects_migrated));
  reg.count(dotted(prefix, "rehosted"), static_cast<double>(stats.rehosted));
  reg.count(dotted(prefix, "cutover_messages"),
            static_cast<double>(stats.cutover_messages));
  reg.count(dotted(prefix, "bytes_on_wire"),
            static_cast<double>(stats.bytes_on_wire));
}

}  // namespace armada::obs
